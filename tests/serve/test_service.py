"""The typed Service facade: parity, scheduler coalescing, taxonomy, shims."""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.core.masking import window_start
from repro.data import (Interaction, SimulationConfig, StudentSequence,
                        StudentSimulator, build_dataset, collate)
from repro.obs import names as metric_names
from repro.serve import (BatchEnvelope, CandidateQuestion, EmptyHistory,
                         ExplainQuery, HistoryEdit, InferenceEngine,
                         InternalError, InvalidConcept, InvalidEdit,
                         InvalidQuestion, MalformedQuery, ModelNotLoaded,
                         ModelRegistry, RecommendQuery, RecordEvent,
                         ScoreQuery, ScoreRequest, Service, UnknownStudent,
                         WhatIfQuery)

ATOL = 1e-10
NUM_QUESTIONS = 40
NUM_CONCEPTS = 6


def make_dataset(num_students=6, seed=11):
    config = SimulationConfig(num_students=num_students,
                              num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=(5, 14))
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("svc", simulator.simulate(seed=seed + 1),
                         NUM_QUESTIONS, NUM_CONCEPTS)


def make_model(encoder="dkt", dim=8, layers=1, seed=3,
               use_monotonicity=True):
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, dim=dim, layers=layers,
                           seed=seed, use_monotonicity=use_monotonicity))


def seed_idiom_score(model, interactions, question_id, concept_ids):
    """Golden reference: one collated probe row, the pre-engine path."""
    probe = Interaction(question_id, 1, tuple(concept_ids))
    sequence = StudentSequence("ref", list(interactions) + [probe])
    batch = collate([sequence])
    return float(model.predict_scores(batch,
                                      np.array([len(sequence) - 1]))[0])



def value_recommend(student, **kwargs):
    """A recommend whose value worlds matter: three candidates, one of
    them multi-concept, re-asking the three most recent questions."""
    params = {"top_k": 3, "horizon": 3, **kwargs}
    return RecommendQuery(student, (CandidateQuestion(3, (1,)),
                                    CandidateQuestion(9, (2,)),
                                    CandidateQuestion(17, (4, 5))),
                          **params)


def rebuilt_histories():
    """Histories warm-built so far, process-wide (each is one row of a
    stacked capture pass)."""
    return obs.get_registry().counter(
        metric_names.STREAM_CACHE_REBUILDS_TOTAL).value


def assert_same_items(reply, reference, atol):
    assert reply.ok and reference.ok
    assert [item.question_id for item in reply.items] == \
        [item.question_id for item in reference.items]
    for mine, ref in zip(reply.items, reference.items):
        for attribute in ("success_probability", "value", "score"):
            assert abs(getattr(mine, attribute)
                       - getattr(ref, attribute)) <= atol, attribute


def legacy(method, *args, **kwargs):
    """Exercise a deprecated engine shim, asserting it still warns."""
    with pytest.warns(DeprecationWarning, match="deprecated"):
        return method(*args, **kwargs)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture(scope="module")
def model(dataset):
    return make_model()


@pytest.fixture()
def service(model, dataset):
    engine = InferenceEngine(model, max_batch=8)
    engine.load_dataset(dataset)
    return Service(engine)


# ---------------------------------------------------------------------------
# Parity: facade vs golden references (all encoders, windowed + not)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("window", [None, 6])
class TestParity:
    def _service(self, encoder, window, dataset):
        engine = InferenceEngine(make_model(encoder), window=window)
        engine.load_dataset(dataset)
        return Service(engine), engine

    def test_scores_match_seed_idiom(self, encoder, window, dataset):
        service, engine = self._service(encoder, window, dataset)
        for sequence in list(dataset)[:3]:
            question = 1 + len(sequence) % NUM_QUESTIONS
            reply = service.execute(ScoreQuery(sequence.student_id,
                                               question, (2,)))
            start = window_start(len(sequence), window, engine.window_hop)
            reference = seed_idiom_score(
                engine.model, list(sequence.interactions)[start:],
                question, (2,))
            assert abs(reply.score - reference) < ATOL

    def test_influences_match_direct_model_call(self, encoder, window,
                                                dataset):
        service, engine = self._service(encoder, window, dataset)
        sequence = next(s for s in dataset if len(s) >= 8)
        reply = service.execute(ExplainQuery(sequence.student_id))
        start = window_start(len(sequence) - 1, window, engine.window_hop)
        windowed = StudentSequence(
            "ref", list(sequence.interactions)[start:])
        batch = collate([windowed])
        from repro.tensor import no_grad
        with no_grad():
            direct = engine.model.influences(
                batch, np.array([len(windowed) - 1]))
        assert abs(reply.score - float(direct.scores[0])) < ATOL
        # Per-position deltas: itemized influences line up with the
        # direct computation's grids position by position.
        deltas = np.where(
            batch.responses[0, :len(windowed) - 1] == 1,
            direct.correct_deltas.data[0, :len(windowed) - 1],
            direct.incorrect_deltas.data[0, :len(windowed) - 1])
        assert len(reply.influences) == len(windowed) - 1
        for item, expected in zip(reply.influences, deltas):
            assert abs(item.influence - expected) < ATOL
        # Absolute positions survive the window re-basing.
        assert [item.position for item in reply.influences] == \
            list(range(start, len(sequence) - 1))

    def test_what_if_matches_from_scratch_rescore(self, encoder, window,
                                                  dataset):
        service, engine = self._service(encoder, window, dataset)
        sequence = next(s for s in dataset if len(s) >= 8)
        edits = (HistoryEdit(0, "flip"), HistoryEdit(3, "set", value=0),
                 HistoryEdit(5, "remove"))
        reply = service.execute(WhatIfQuery(sequence.student_id, 9, (1,),
                                            edits))
        interactions = list(sequence.interactions)
        flipped = interactions[0]
        interactions[0] = Interaction(flipped.question_id,
                                      1 - flipped.correct,
                                      flipped.concept_ids)
        third = interactions[3]
        interactions[3] = Interaction(third.question_id, 0,
                                      third.concept_ids)
        del interactions[5]
        start = window_start(len(interactions), window, engine.window_hop)
        reference = seed_idiom_score(engine.model, interactions[start:],
                                     9, (1,))
        assert abs(reply.score - reference) < ATOL
        base_start = window_start(len(sequence), window, engine.window_hop)
        baseline = seed_idiom_score(
            engine.model, list(sequence.interactions)[base_start:], 9, (1,))
        assert abs(reply.baseline_score - baseline) < ATOL


# ---------------------------------------------------------------------------
# Recommend value worlds: clone-extended caches == raw re-encoding
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("use_monotonicity", [True, False])
def test_recommend_values_match_cache_disabled_engine(encoder,
                                                      use_monotonicity,
                                                      dataset):
    """Clone-extended value worlds (the three variant bases, or the
    single "-mono" base) score like the raw re-encoding path."""
    model = make_model(encoder, use_monotonicity=use_monotonicity)
    cached = Service(InferenceEngine(model))
    uncached = Service(InferenceEngine(model, stream_cache_bytes=0))
    for service in (cached, uncached):
        service.engine().load_dataset(dataset)
    for sequence in [s for s in dataset if len(s) >= 4][:3]:
        query = value_recommend(sequence.student_id)
        assert_same_items(cached.execute(query), uncached.execute(query),
                          1e-12)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_windowed_recommend_values_match_after_the_window_slid(encoder,
                                                               dataset):
    model = make_model(encoder)
    cached = Service(InferenceEngine(model, window=6, window_hop=2))
    uncached = Service(InferenceEngine(model, stream_cache_bytes=0,
                                       window=6, window_hop=2))
    sequence = next(s for s in dataset if len(s) >= 8)
    student = sequence.student_id
    for service in (cached, uncached):
        service.engine().load_dataset(dataset)
    anchor = cached.engine()._window_start(len(sequence))
    assert cached.execute(ScoreQuery(student, 7, (3,))).ok   # warm
    for question in (4, 12, 20):
        for service in (cached, uncached):
            service.engine().record(student, question, question % 2, (2,))
    length = cached.engine().history_length(student)
    assert cached.engine()._window_start(length) > anchor   # slid
    query = value_recommend(student)
    assert_same_items(cached.execute(query), uncached.execute(query), 1e-12)


# ---------------------------------------------------------------------------
# Scheduler: mixed-type coalescing into one shared forward-stream batch
# ---------------------------------------------------------------------------
class TestMixedBatchCoalescing:
    def _counting(self, engine, monkeypatch):
        counts = {"capture": 0, "forward": 0}
        encoder = engine.model.generator.encoder
        real_capture = encoder.forward_stream_with_capture
        real_forward = encoder.forward_stream

        def capture(*args, **kwargs):
            counts["capture"] += 1
            return real_capture(*args, **kwargs)

        def forward(*args, **kwargs):
            counts["forward"] += 1
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward_stream_with_capture", capture)
        monkeypatch.setattr(encoder, "forward_stream", forward)
        return counts

    def _mixed_queries(self, dataset):
        students = [s.student_id for s in dataset]
        return [
            ScoreQuery(students[0], 7, (3,)),
            ExplainQuery(students[0]),
            WhatIfQuery(students[1], 9, (1,), (HistoryEdit(1, "flip"),)),
            ScoreQuery(students[1], 2, (1,)),
            ScoreQuery(students[2], 5, (2,)),
        ]

    def test_single_shared_forward_batch_cold(self, service, dataset,
                                              monkeypatch):
        counts = self._counting(service.engine(), monkeypatch)
        replies = service.execute_batch(self._mixed_queries(dataset))
        assert all(reply.ok for reply in replies)
        # Every cold student *and* the edited timeline warm-built in one
        # stacked capture pass; no separate forward-stream encodings.
        assert counts["capture"] == 1
        assert counts["forward"] == 0

    def test_warm_flush_runs_no_forward_streams(self, service, dataset,
                                                monkeypatch):
        service.execute_batch(self._mixed_queries(dataset))  # warm caches
        counts = self._counting(service.engine(), monkeypatch)
        replies = service.execute_batch([
            ScoreQuery(list(dataset)[0].student_id, 7, (3,)),
            ExplainQuery(list(dataset)[0].student_id),
            ScoreQuery(list(dataset)[2].student_id, 5, (2,)),
        ])
        assert all(reply.ok for reply in replies)
        assert counts["capture"] == 0 and counts["forward"] == 0

    def test_recommend_probes_ride_the_shared_batch(self, service,
                                                    dataset, monkeypatch):
        """Success-probability probes are coalesced: a mixed batch with
        a recommend does exactly the forward work the recommend alone
        does — zero extra passes for the probes."""
        student = next(s for s in dataset if len(s) >= 4).student_id
        recommend = RecommendQuery(
            student, (CandidateQuestion(3, (1,)),
                      CandidateQuestion(9, (2,))), top_k=2, horizon=2)
        # Warm every cache first (score + recommend probe share a slot).
        assert service.execute(recommend).ok
        counts = self._counting(service.engine(), monkeypatch)
        assert service.execute_batch([recommend])[0].ok
        alone = dict(counts)
        assert alone["capture"] == 0   # warm probes: no warm-up pass
        counts["capture"] = counts["forward"] = 0
        replies = service.execute_batch([
            ScoreQuery(student, 7, (3,)),
            ExplainQuery(student),
            recommend,
        ])
        assert all(reply.ok for reply in replies)
        assert dict(counts) == alone

    def test_cold_recommend_shares_the_single_warmup_pass(self, service,
                                                          dataset,
                                                          monkeypatch):
        counts = self._counting(service.engine(), monkeypatch)
        students = [s.student_id for s in dataset]
        replies = service.execute_batch([
            ScoreQuery(students[0], 7, (3,)),
            RecommendQuery(students[1],
                           (CandidateQuestion(3, (1,)),
                            CandidateQuestion(9, (2,))), horizon=2),
            ExplainQuery(students[2]),
        ])
        assert all(reply.ok for reply in replies)
        # Cold score rows, recommend probe rows, and the explain target
        # all warm-build in ONE stacked capture pass; the recommend's
        # value worlds then clone-extend the entry that pass built.
        assert counts == {"capture": 1, "forward": 0}

    def test_warm_recommend_runs_no_forward_streams(self, service,
                                                    dataset, monkeypatch):
        """Value worlds clone-extend the warm entry: a warm recommend
        runs only per-target backward streams."""
        student = next(s for s in dataset if len(s) >= 6).student_id
        assert service.execute(ScoreQuery(student, 7, (3,))).ok
        counts = self._counting(service.engine(), monkeypatch)
        reply = service.execute(value_recommend(student))
        assert reply.ok and len(reply.items) == 3
        assert counts == {"capture": 0, "forward": 0}

    def test_cold_recommend_runs_only_the_warmup_capture(self, service,
                                                         dataset,
                                                         monkeypatch):
        student = next(s for s in dataset if len(s) >= 6).student_id
        counts = self._counting(service.engine(), monkeypatch)
        assert service.execute(value_recommend(student)).ok
        assert counts == {"capture": 1, "forward": 0}

    def test_evicted_root_costs_at_most_one_extra_capture(self, model,
                                                          dataset,
                                                          monkeypatch):
        """Under a byte budget too small to keep any entry, the probes'
        warm-build is evicted at once; the value worlds rebuild one
        root from the snapshot — never one build per world row."""
        engine = InferenceEngine(model, stream_cache_bytes=1)
        engine.load_dataset(dataset)
        uncached = InferenceEngine(model, stream_cache_bytes=0)
        uncached.load_dataset(dataset)
        student = next(s for s in dataset if len(s) >= 6).student_id
        counts = self._counting(engine, monkeypatch)
        rebuilds = rebuilt_histories()
        reply = Service(engine).execute(value_recommend(student))
        assert counts["forward"] == 0 and counts["capture"] <= 2
        assert rebuilt_histories() - rebuilds <= 2   # probes + one root
        assert len(engine.stream_caches) == 0
        assert_same_items(reply, Service(uncached).execute(
            value_recommend(student)), 1e-12)

    def test_stale_root_costs_at_most_one_extra_capture(self, model,
                                                        dataset,
                                                        monkeypatch):
        """A record landing between the shared flush and the value
        worlds extends the stored entry past the snapshot: the worlds
        rebuild one root from the snapshot they were admitted with."""
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        uncached = InferenceEngine(model, stream_cache_bytes=0)
        uncached.load_dataset(dataset)
        student = next(s for s in dataset if len(s) >= 6).student_id
        expected = Service(uncached).execute(value_recommend(student))
        service = Service(engine)
        assert service.execute(ScoreQuery(student, 7, (3,))).ok
        real_reply = Service._recommend_reply

        def record_first(self, engine, model_name, pending):
            engine.record(pending.query.student_id, 4, 1, (2,))
            return real_reply(self, engine, model_name, pending)

        monkeypatch.setattr(Service, "_recommend_reply", record_first)
        counts = self._counting(engine, monkeypatch)
        rebuilds = rebuilt_histories()
        reply = service.execute(value_recommend(student))
        assert counts == {"capture": 1, "forward": 0}
        assert rebuilt_histories() - rebuilds == 1   # the one root
        assert_same_items(reply, expected, 1e-12)

    def test_mixed_batch_matches_individual_execution(self, model,
                                                      dataset):
        engine_a = InferenceEngine(model)
        engine_a.load_dataset(dataset)
        engine_b = InferenceEngine(model)
        engine_b.load_dataset(dataset)
        queries = self._mixed_queries(dataset)
        batched = Service(engine_a).execute_batch(BatchEnvelope(
            tuple(queries)))
        single = [Service(engine_b).execute(query) for query in queries]
        for one, many in zip(single, batched):
            assert type(one) is type(many)
            for attribute in ("score", "baseline_score"):
                if hasattr(one, attribute):
                    assert abs(getattr(one, attribute)
                               - getattr(many, attribute)) < ATOL

    def test_cached_and_uncached_service_agree(self, model, dataset):
        cached = InferenceEngine(model)
        cached.load_dataset(dataset)
        uncached = InferenceEngine(model, stream_cache_bytes=0)
        uncached.load_dataset(dataset)
        queries = self._mixed_queries(dataset)
        warm = Service(cached).execute_batch(queries)
        cold = Service(uncached).execute_batch(queries)
        for a, b in zip(warm, cold):
            if hasattr(a, "score"):
                assert abs(a.score - b.score) < ATOL

    def test_records_apply_before_reads(self, model, dataset):
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        service = Service(engine)
        student = list(dataset)[0].student_id
        replies = service.execute_batch([
            ScoreQuery(student, 7, (3,)),
            RecordEvent(student, 4, 1, (2,)),
        ])
        # The score observes the post-record snapshot even though it
        # precedes the record in the envelope.
        after = service.execute(ScoreQuery(student, 7, (3,)))
        assert replies[0].score == after.score
        assert replies[1].history_length == engine.history_length(student)


# ---------------------------------------------------------------------------
# Error taxonomy (facade surface)
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_invalid_question(self, service):
        reply = service.execute(ScoreQuery("amy", 9999, (1,)))
        assert isinstance(reply, InvalidQuestion)
        assert reply.code == "invalid_question" and not reply.ok
        assert "9999" in reply.message and "model 'default'" in reply.message
        assert tuple(reply.detail("valid_range")) == (1, NUM_QUESTIONS)

    def test_invalid_concept_and_empty_set(self, service):
        reply = service.execute(ScoreQuery("amy", 3, (999,)))
        assert isinstance(reply, InvalidConcept)
        empty = service.execute(ScoreQuery("amy", 3, ()))
        assert isinstance(empty, InvalidConcept)
        assert "non-empty" in empty.message

    def test_unknown_student(self, service):
        for query in (ExplainQuery("ghost"),
                      WhatIfQuery("ghost", 3, (1,),
                                  (HistoryEdit(0, "flip"),))):
            reply = service.execute(query)
            assert isinstance(reply, UnknownStudent)
            assert "ghost" in reply.message

    def test_empty_history_explain(self, service):
        engine = service.engine()
        engine.record("newbie", 3, 1, (1,))
        reply = service.execute(ExplainQuery("newbie"))
        assert isinstance(reply, EmptyHistory)
        assert "at least two" in reply.message

    def test_empty_history_recommend(self, service):
        reply = service.execute(RecommendQuery(
            "ghost", (CandidateQuestion(3, (1,)),)))
        assert isinstance(reply, EmptyHistory)

    @pytest.mark.parametrize("field, value", [
        ("top_k", -1), ("horizon", -1),
        ("target_success", float("nan")), ("target_success", float("inf")),
        ("value_weight", float("-inf")), ("value_weight", float("nan"))])
    def test_recommend_out_of_range_parameters(self, service, dataset,
                                               field, value):
        student = list(dataset)[0].student_id
        reply = service.execute(RecommendQuery(
            student, (CandidateQuestion(3, (1,)),), **{field: value}))
        assert isinstance(reply, MalformedQuery)
        assert field in reply.message
        detail = reply.detail(field)
        assert detail == value or (math.isnan(value) and math.isnan(detail))

    def test_recommend_range_edges_are_accepted(self, service, dataset):
        student = next(s for s in dataset if len(s) >= 6).student_id
        assert service.execute(value_recommend(student, top_k=0)) \
            .items == ()
        flat = service.execute(RecommendQuery(
            student, (CandidateQuestion(3, (1,)),
                      CandidateQuestion(9, (2,))), horizon=0))
        assert flat.ok and [item.value for item in flat.items] == [0.0, 0.0]

    def test_invalid_edits(self, service, dataset):
        student = list(dataset)[0].student_id
        cases = [
            (HistoryEdit(99, "flip"), "position"),
            (HistoryEdit(0, "teleport"), "op"),
            (HistoryEdit(0, "set"), "value"),
        ]
        for edit, fragment in cases:
            reply = service.execute(WhatIfQuery(student, 3, (1,), (edit,)))
            assert isinstance(reply, InvalidEdit)
            assert fragment in reply.message

    def test_duplicate_edit_positions_rejected(self, service, dataset):
        # Positions index the pre-edit history; two edits at one
        # position would silently edit whatever slid into the slot.
        student = list(dataset)[0].student_id
        reply = service.execute(WhatIfQuery(
            student, 3, (1,),
            (HistoryEdit(2, "remove"), HistoryEdit(2, "remove"))))
        assert isinstance(reply, InvalidEdit)
        assert "duplicate" in reply.message

    def test_model_not_loaded(self, service):
        reply = service.execute(ScoreQuery("amy", 3, (1,), model="nope"))
        assert isinstance(reply, ModelNotLoaded)
        assert "nope" in reply.message and "default" in str(reply.details)

    def test_mid_flight_unregister_yields_model_not_loaded(self, model,
                                                           dataset):
        registry = ModelRegistry()
        registry.register("prod", InferenceEngine(model))
        service = Service(registry=registry)
        service.engine("prod").load_dataset(dataset)
        student = list(dataset)[0].student_id
        assert service.execute(ScoreQuery(student, 3, (1,),
                                          model="prod")).ok
        registry.unregister("prod")
        reply = service.execute(ScoreQuery(student, 3, (1,), model="prod"))
        assert isinstance(reply, ModelNotLoaded)

    def test_malformed_values(self, service):
        bad_correct = service.execute(RecordEvent("amy", 3, 7, (1,)))
        assert isinstance(bad_correct, MalformedQuery)
        assert "correct must be 0 or 1" in bad_correct.message
        not_a_query = service.execute_batch([object()])[0]
        assert isinstance(not_a_query, MalformedQuery)
        nested = service.execute_batch(
            [BatchEnvelope((ScoreQuery("amy", 3, (1,)),))])[0]
        assert isinstance(nested, MalformedQuery)

    def test_execute_accepts_an_envelope(self, service, dataset):
        # A whole envelope through execute() (the /v1/query route's
        # view) answers with a BatchReply, not a nesting complaint.
        from repro.serve import BatchReply
        student = list(dataset)[0].student_id
        reply = service.execute(BatchEnvelope((
            ScoreQuery(student, 3, (1,)),
            ExplainQuery(student),
        )))
        assert isinstance(reply, BatchReply)
        assert all(inner.ok for inner in reply.replies)

    def test_ill_typed_wire_values_become_taxonomy_errors(self, service,
                                                          dataset):
        # JSON can carry any type: structurally valid queries with
        # ill-typed values must come back as error values, never raise
        # out of the facade or poison batch siblings.
        student = list(dataset)[0].student_id
        replies = service.execute_batch([
            RecordEvent(student, "7", 1, (1,)),
            ScoreQuery(student, 3, ("x",)),
            RecommendQuery(student, (CandidateQuestion(3, (1,)),),
                           top_k="five"),
            WhatIfQuery(student, 3, (1,), (HistoryEdit("0", "flip"),)),
            ScoreQuery(student, 3, (1,)),
        ])
        assert isinstance(replies[0], InvalidQuestion)
        assert "integer" in replies[0].message
        assert isinstance(replies[1], InvalidConcept)
        assert isinstance(replies[2], MalformedQuery)
        assert isinstance(replies[3], InvalidEdit)
        assert replies[4].ok   # the sibling still scored

    def test_internal_error_is_a_value(self, service, dataset,
                                       monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(service.engine(), "_score_context", boom)
        reply = service.execute(ScoreQuery(list(dataset)[0].student_id,
                                           3, (1,)))
        assert isinstance(reply, InternalError)
        assert "kaboom" in reply.message

    def test_errors_do_not_poison_the_batch(self, service, dataset):
        student = list(dataset)[0].student_id
        replies = service.execute_batch([
            ScoreQuery(student, 9999, (1,)),
            ScoreQuery(student, 3, (1,)),
            ExplainQuery("ghost"),
            ExplainQuery(student),
        ])
        assert isinstance(replies[0], InvalidQuestion)
        assert replies[1].ok
        assert isinstance(replies[2], UnknownStudent)
        assert replies[3].ok


# ---------------------------------------------------------------------------
# Deprecation shims: old engine methods == facade, bit-identically
# ---------------------------------------------------------------------------
class TestDeprecationShims:
    def test_score_batch_is_bit_identical_to_facade(self, service,
                                                    dataset):
        engine = service.engine()
        requests = [ScoreRequest(s.student_id, 1 + k % NUM_QUESTIONS,
                                 (1 + k % NUM_CONCEPTS,))
                    for k, s in enumerate(dataset)]
        via_shim = legacy(engine.score_batch, requests)
        via_facade = [service.execute(ScoreQuery(
            r.student_id, r.question_id, r.concept_ids)).score
            for r in requests]
        np.testing.assert_allclose(via_shim, via_facade, rtol=0, atol=0)

    def test_influences_shim_returns_facade_computation(self, service,
                                                        dataset):
        engine = service.engine()
        student = next(s for s in dataset if len(s) >= 4).student_id
        computation = legacy(engine.influences, student)
        reply = service.execute(ExplainQuery(student))
        assert float(computation.scores[0]) == reply.score

    def test_recommend_shim_matches_facade_items(self, service, dataset):
        engine = service.engine()
        student = next(s for s in dataset if len(s) >= 6).student_id
        candidates = [ScoreRequest(student, q, (1 + q % NUM_CONCEPTS,))
                      for q in (3, 11, 27)]
        shim = legacy(engine.recommend, student, candidates, top_k=3)
        facade = service.execute(RecommendQuery(
            student, tuple(CandidateQuestion(c.question_id, c.concept_ids)
                           for c in candidates), top_k=3))
        assert [r.question_id for r in shim] == \
            [item.question_id for item in facade.items]
        for mine, item in zip(shim, facade.items):
            assert mine.score == item.score
            assert mine.success_probability == item.success_probability

    def test_shim_errors_keep_legacy_exception_contract(self, service):
        engine = service.engine()
        with pytest.raises(ValueError, match="question_id 9999"):
            legacy(engine.score, "amy", 9999, (1,))
        with pytest.raises(ValueError, match="at least two"):
            legacy(engine.influences, "ghost")

    def test_engine_service_is_canonical(self, service):
        # The facade installs itself on its engines: shims route back to
        # the same scheduler instead of spawning a parallel facade.
        assert service.engine().service is service

    def test_every_shim_announces_its_replacement(self, service, dataset):
        """Each legacy entry point warns once per call, names the typed
        replacement, and points at the published removal schedule — all
        while returning the same values as before."""
        engine = service.engine()
        student = next(s for s in dataset if len(s) >= 4).student_id
        candidates = [ScoreRequest(student, q, (1 + q % NUM_CONCEPTS,))
                      for q in (3, 11)]
        calls = [
            (lambda: engine.submit(ScoreRequest(student, 5, (1,))),
             "Service.execute_batch"),
            (lambda: engine.flush(), "Service.execute_batch"),
            (lambda: engine.score_batch(
                [ScoreRequest(student, 5, (1,))]), "ScoreQuery"),
            (lambda: engine.score(student, 5, (1,)),
             "Service.execute(ScoreQuery"),
            (lambda: engine.influences(student), "ExplainQuery"),
            (lambda: engine.recommend(student, candidates, top_k=2),
             "RecommendQuery"),
        ]
        for call, replacement in calls:
            with pytest.warns(DeprecationWarning) as captured:
                call()
            messages = [str(w.message) for w in captured]
            assert any(replacement in m for m in messages)
            assert all("docs/API.md" in m and "Deprecation schedule" in m
                       for m in messages)

    def test_shim_warning_points_at_the_caller(self, service, dataset):
        # stacklevel=2: the warning blames the deprecated call site in
        # user code, not the adapter inside engine.py.
        engine = service.engine()
        student = list(dataset)[0].student_id
        with pytest.warns(DeprecationWarning) as captured:
            engine.score(student, 5, (1,))
        assert captured[0].filename == __file__


# ---------------------------------------------------------------------------
# Registry + hot swap
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_multi_model_routing(self, dataset):
        registry = ModelRegistry()
        registry.register("a", InferenceEngine(make_model(seed=1)))
        registry.register("b", InferenceEngine(make_model(seed=2)))
        service = Service(registry=registry)
        service.engine("a").load_dataset(dataset)
        service.engine("b").load_dataset(dataset)
        student = list(dataset)[0].student_id
        score_a = service.execute(ScoreQuery(student, 3, (1,), model="a"))
        score_b = service.execute(ScoreQuery(student, 3, (1,), model="b"))
        assert score_a.model == "a" and score_b.model == "b"
        assert score_a.score != score_b.score   # different weights
        described = {entry["name"] for entry in service.describe_models()}
        assert described == {"a", "b"}

    def test_hot_swap_preserves_histories_and_changes_scores(self,
                                                             dataset,
                                                             tmp_path):
        registry = ModelRegistry()
        engine = registry.register("prod",
                                   InferenceEngine(make_model(seed=1)))
        engine.load_dataset(dataset)
        service = Service(registry=registry)
        student = list(dataset)[0].student_id
        before = service.execute(ScoreQuery(student, 3, (1,),
                                            model="prod")).score
        retrained = InferenceEngine(make_model(seed=9))
        path = tmp_path / "retrained.npz"
        retrained.save(path)
        registry.swap("prod", path)
        after = service.execute(ScoreQuery(student, 3, (1,), model="prod"))
        assert after.ok and after.score != before
        assert engine.history_length(student) == len(list(dataset)[0])

    def test_swap_rejects_mismatched_config(self, tmp_path):
        registry = ModelRegistry()
        registry.register("prod", InferenceEngine(make_model(layers=1)))
        other = InferenceEngine(make_model(layers=2))
        path = tmp_path / "other.npz"
        other.save(path)
        with pytest.raises(ValueError, match="different model config"):
            registry.swap("prod", path)
        with pytest.raises(KeyError, match="unknown"):
            registry.swap("unknown-name", path)

    def test_alias_registration_keeps_shims_working(self, dataset):
        # Registering an already-bound engine in a *second* registry
        # must not repoint engine.name: its legacy shims address the
        # facade it was first bound to.
        engine = InferenceEngine(make_model())
        engine.load_dataset(dataset)
        service = Service(engine)          # binds under 'default'
        student = list(dataset)[0].student_id
        before = legacy(engine.score, student, 3, (1,))
        other = ModelRegistry()
        other.register("canary", engine)
        assert engine.name == "default"
        assert legacy(engine.score, student, 3, (1,)) == before   # shims intact
        # The alias serves the same engine, echoing the addressed name.
        aliased = Service(registry=other).execute(
            ScoreQuery(student, 3, (1,), model="canary"))
        assert aliased.model == "canary"
        assert aliased.score == before

    def test_service_from_checkpoint(self, dataset, tmp_path):
        engine = InferenceEngine(make_model())
        path = tmp_path / "svc.npz"
        engine.save(path)
        service = Service.from_checkpoint(path, name="prod")
        assert service.registry.names() == ["prod"]
        assert service.execute(ScoreQuery("cold", 3, (1,),
                                          model="prod")).score == 0.5


# ---------------------------------------------------------------------------
# Admission queue + persistent worker pool
# ---------------------------------------------------------------------------
class TestAdmissionAndPool:
    def test_submit_flush_lifecycle(self, service, dataset):
        students = [s.student_id for s in list(dataset)[:3]]
        handles = [service.submit(ScoreQuery(s, 9, (4,)))
                   for s in students]
        assert not any(h.done for h in handles)
        with pytest.raises(RuntimeError, match="not flushed"):
            _ = handles[0].reply
        service.flush()
        direct = [service.execute(ScoreQuery(s, 9, (4,)))
                  for s in students]
        for handle, reference in zip(handles, direct):
            assert handle.done
            assert handle.reply.score == reference.score

    def test_auto_flush_at_max_batch(self, model, dataset):
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        service = Service(engine, max_batch=2)
        first = service.submit(ScoreQuery(list(dataset)[0].student_id,
                                          2, (1,)))
        assert not first.done
        second = service.submit(ScoreQuery(list(dataset)[1].student_id,
                                           2, (1,)))
        assert first.done and second.done

    def test_persistent_pool_reused_and_bit_identical(self, model,
                                                      dataset):
        threaded = InferenceEngine(model, workers=3, target_batch=4)
        sequential = InferenceEngine(model, target_batch=4)
        threaded.load_dataset(dataset)
        sequential.load_dataset(dataset)
        assert threaded._executor is not None
        pool = threaded._executor
        queries = [ScoreQuery(s.student_id, 1 + k % NUM_QUESTIONS,
                              (1 + k % NUM_CONCEPTS,))
                   for k, s in enumerate(dataset)]
        first = Service(threaded).execute_batch(queries)
        second = threaded.service.execute_batch(queries)
        reference = sequential.service.execute_batch(queries)
        # Same pool object across calls; no per-call spin-up.
        assert threaded._executor is pool
        for a, b, c in zip(first, second, reference):
            assert a.score == b.score == c.score
        threaded.close()
        assert threaded._executor is None
        # Scoring still works after close (falls back to per-call pools).
        assert threaded.service.execute(queries[0]).score == first[0].score
