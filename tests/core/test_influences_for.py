"""Parity matrix for ``MultiTargetContext.influences_for``.

The attention encoders compute only what Eq. 12 reads: the first block
shares each row's key prefix across its targets (online-softmax
statistics merged with each lane's intervened key) and the last block,
the head and the sigmoid run only at the correct/incorrect history
positions.  Every configuration that changes that path is compared here
with the per-prefix reference (``RCKT.influences`` on one exact-length
prefix batch per target, which is what ``predict_dataset(legacy=True)``
scores): scores and both explain Δ grids at 1e-10, and the grids are
exactly zero off the Eq. 12 index sets.
"""

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig, score_batch_targets
from repro.core.influence import SCORE_NORMALIZATIONS
from repro.core.masking import window_start
from repro.core.multi_target import MultiTargetContext
from repro.data import (SimulationConfig, StudentSimulator, build_dataset,
                        collate)
from repro.tensor import no_grad

ATOL = 1e-10


def make_dataset(num_students=3, lengths=(5, 11), seed=7):
    config = SimulationConfig(num_students=num_students, num_questions=30,
                              num_concepts=6, sequence_length=lengths)
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("influences", simulator.simulate(seed=seed + 1),
                         config.num_questions, config.num_concepts,
                         min_length=2)


def make_model(encoder, dataset, **overrides):
    settings = dict(dim=8, layers=1, seed=2)
    settings.update(overrides)
    model = RCKT(dataset.num_questions, dataset.num_concepts,
                 RCKTConfig(encoder=encoder, **settings))
    model.eval()
    return model


def reference(model, sequence, col):
    """One exact-length prefix batch: the legacy protocol's target."""
    with no_grad():
        return model.influences(collate([sequence[:col + 1]]),
                                np.array([col]))


def every_target(sequences):
    rows, cols = zip(*[(row, col) for row, sequence in enumerate(sequences)
                       for col in range(1, len(sequence))])
    return np.array(rows), np.array(cols)


def assert_matches_reference(model, sequences, rows, cols, computation):
    base = collate(sequences)
    for k, (row, col) in enumerate(zip(rows, cols)):
        golden = reference(model, sequences[row], col)
        assert abs(computation.scores[k] - golden.scores[0]) <= ATOL
        for name in ("correct_deltas", "incorrect_deltas"):
            fast = getattr(computation, name).data[k]
            np.testing.assert_allclose(
                fast[:col + 1], getattr(golden, name).data[0],
                rtol=0, atol=ATOL, err_msg=name)
        # Exactly zero off Eq. 12's index sets (and past the target).
        history = np.arange(len(fast)) < col
        responses = base.responses[row, :len(fast)]
        correct = history & base.mask[row, :len(fast)] & (responses == 1)
        incorrect = history & base.mask[row, :len(fast)] & (responses == 0)
        assert np.all(computation.correct_deltas.data[k][~correct] == 0)
        assert np.all(computation.incorrect_deltas.data[k][~incorrect] == 0)


@pytest.mark.parametrize("normalization", SCORE_NORMALIZATIONS)
@pytest.mark.parametrize("mono", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_influences_for_matches_prefix_reference(encoder, layers, mono,
                                                 normalization):
    dataset = make_dataset()
    model = make_model(encoder, dataset, layers=layers,
                       use_monotonicity=mono,
                       score_normalization=normalization)
    sequences = list(dataset)
    with no_grad():
        context = MultiTargetContext(model, collate(sequences))
        # Many targets per row: every column of every row in one call.
        rows, cols = every_target(sequences)
        many = context.influences_for(rows, cols)
        # One target per row.
        last_rows = np.arange(len(sequences))
        last_cols = np.array([len(s) - 1 for s in sequences])
        one = context.influences_for(last_rows, last_cols)
    assert_matches_reference(model, sequences, rows, cols, many)
    assert_matches_reference(model, sequences, last_rows, last_cols, one)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_windowed_contexts_match_truncated_reference(encoder, layers):
    """Re-based window slices score as the truncated history would."""
    dataset = make_dataset(num_students=4, lengths=(12, 20))
    model = make_model(encoder, dataset, layers=layers)
    sequences = list(dataset)
    window, hop = 6, 2
    rows, cols = every_target(sequences)
    with no_grad():
        fast = score_batch_targets(
            model, collate([sequences[row] for row in rows]), cols,
            target_batch=16, window=window, window_hop=hop)
    for k, (row, col) in enumerate(zip(rows, cols)):
        start = window_start(col, window, hop)
        golden = reference(model, sequences[row][start:], col - start)
        assert abs(fast[k] - golden.scores[0]) <= ATOL


def sharpen_backward_attention(model, factor):
    """Scale every backward block's query/key projections."""
    for block in model.generator.encoder.backward_stack.blocks:
        for projection in (block.attention.query_proj,
                           block.attention.key_proj):
            projection.weight.data *= factor
            projection.bias.data *= factor


def first_block_logit_span(model, sequence):
    """Largest spread of one query's allowed first-block logits over the
    factual row (before the decay, which only widens it)."""
    stack = model.generator.encoder.backward_stack
    attention = stack.blocks[0].attention
    with no_grad():
        x = model.generator.embedder.interaction_vectors(
            collate([sequence])).data[0]
    x = x + stack.positions.ensure(len(x))[:len(x)]
    heads, head_dim = attention.heads, attention.head_dim
    q = attention.query_proj.forward_np(x).reshape(-1, heads, head_dim)
    k = attention.key_proj.forward_np(x).reshape(-1, heads, head_dim)
    logits = np.einsum("phd,khd->hpk", q, k) / np.sqrt(head_dim)
    allowed = np.triu(np.ones(logits.shape[1:], dtype=bool))
    return max(row[keep].max() - row[keep].min()
               for head in logits for row, keep in zip(head, allowed))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("encoder", ["sakt", "akt"])
def test_extreme_logits_stay_finite_and_exact(encoder, layers):
    """Logits spanning more than 1000 within a row: each part of the
    merge is stabilized by its own max, so nothing overflows and the
    scores still match the reference."""
    dataset = make_dataset(num_students=2, lengths=(9, 12))
    model = make_model(encoder, dataset, layers=layers)
    sequences = list(dataset)
    sharpen_backward_attention(model, 60.0)
    assert first_block_logit_span(model, sequences[0]) > 1000
    rows, cols = every_target(sequences)
    with no_grad():
        computation = MultiTargetContext(
            model, collate(sequences)).influences_for(rows, cols)
    assert np.isfinite(computation.scores).all()
    assert np.isfinite(computation.correct_deltas.data).all()
    assert_matches_reference(model, sequences, rows, cols, computation)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("encoder", ENCODERS)
def test_score_independent_of_call_composition(encoder, layers):
    """A target scored alone equals itself scored among other targets of
    wider and longer rows (its own row included) within 1e-12."""
    dataset = make_dataset(num_students=4, lengths=(6, 16))
    model = make_model(encoder, dataset, layers=layers)
    sequences = sorted(dataset, key=len)
    short = sequences[0]
    col = len(short) - 1
    with no_grad():
        alone = MultiTargetContext(model, collate([short])).influences_for(
            np.array([0]), np.array([col]))
        rows, cols = every_target(sequences)
        crowd = MultiTargetContext(model, collate(sequences)).influences_for(
            rows, cols)
    k = int(np.flatnonzero((rows == 0) & (cols == col))[0])
    assert abs(crowd.scores[k] - alone.scores[0]) <= 1e-12
    np.testing.assert_allclose(crowd.correct_deltas.data[k, :col + 1],
                               alone.correct_deltas.data[0],
                               rtol=0, atol=1e-12)
