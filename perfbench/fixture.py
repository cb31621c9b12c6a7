"""The benchmark's fixture: corpus, trained checkpoints, student split.

Every workload serves the same synthetic ASSIST09-profile corpus
(``make_assist09(scale=1.0, seed=0)``: 171 sequences, 5909 responses,
300 questions, 25 concepts).  Each sequence is one serving student.  Its
first ``split`` responses are the *history* the serving stack holds once
set up; the rest is the *continuation* that live traffic scores and
records.

The checkpoints are tiny RCKT models trained here with a fixed seed, so
that scores carry signal (an untrained model reaches no recourse
threshold).  Training runs once per checkout and is cached under
``.bench_build/perfbench/``; it is never part of any timed metric.  A
held-out AUC floor guards against a fixture that learned nothing.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Build outputs live here, relative to the checkout root.
BUILD_DIR = Path(".bench_build") / "perfbench"
FIXTURE_VERSION = 1
CORPUS_SCALE = 1.0
CORPUS_SEED = 0
TRAIN_SEED = 0
#: The fixture must beat chance on held-out students by this much.
HELDOUT_AUC_FLOOR = 0.58
#: Recourse threshold = this quantile of the fixture's probe scores: a
#: quarter of the students start above it and about half of all
#: searches end above it (the stock 0.75 is far outside the ~0.50-0.53
#: score range and is never reached).
RECOURSE_QUANTILE = 0.75

MODEL_CONFIGS = {
    "dkt": dict(encoder="dkt", dim=16, layers=1, epochs=8, patience=3,
                batch_size=32, lr=2e-3, lambda_balance=0.1),
    "akt": dict(encoder="akt", dim=16, layers=1, heads=2, epochs=8,
                patience=3, batch_size=32, lr=2e-3, lambda_balance=0.01),
}


def auc(labels: Sequence[float], scores: Sequence[float]) -> float:
    """Rank (Mann-Whitney) AUC with midranks for ties.

    Kept independent of ``repro.eval`` so the benchmark's quality metric
    cannot move when the program's own metric code changes.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        raise ValueError("AUC undefined with a single class")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    start = 0
    while start < len(scores):
        stop = start
        while stop + 1 < len(scores) and \
                sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - positives * (positives + 1) / 2.0)
                 / (positives * negatives))


@dataclass(frozen=True)
class Item:
    """One corpus response: what a record appends or a score probes."""

    question_id: int
    correct: int
    concept_ids: Tuple[int, ...]


@dataclass
class Student:
    student_id: str
    items: List[Item]
    split: int

    @property
    def history(self) -> List[Item]:
        return self.items[:self.split]

    def continuation(self, k: int) -> Item:
        """The k-th live item; wraps around the whole sequence once the
        held-out tail is used up (histories keep growing)."""
        return self.items[(self.split + k) % len(self.items)]


@dataclass
class Fixture:
    encoder: str
    checkpoint: Path
    students: List[Student]
    questions: List[Item]          # question bank: one item per question
    meta: dict

    @property
    def recourse_threshold(self) -> float:
        return self.meta["recourse_threshold"]


def load_corpus():
    from repro.data import make_assist09
    return make_assist09(scale=CORPUS_SCALE, seed=CORPUS_SEED)


def build_students(dataset) -> List[Student]:
    students = []
    for index, sequence in enumerate(dataset):
        items = [Item(int(i.question_id), int(i.correct),
                      tuple(int(c) for c in i.concept_ids))
                 for i in sequence]
        split = len(items) - max(1, len(items) // 3)
        students.append(Student(f"u{index:03d}", items, split))
    return students


def question_bank(students: Sequence[Student]) -> List[Item]:
    seen: Dict[int, Item] = {}
    for student in students:
        for item in student.items:
            seen.setdefault(item.question_id, item)
    return [seen[q] for q in sorted(seen)]


def history_records(students: Sequence[Student]):
    """Every student's history as RecordEvents, student-major."""
    from repro.serve import RecordEvent
    return [RecordEvent(s.student_id, i.question_id, i.correct,
                        i.concept_ids)
            for s in students for i in s.history]


def probe_queries(students: Sequence[Student]):
    """One ScoreQuery per student for its first held-out item — the
    cache warm-up every serving set-up ends with, and the scores the
    serving workloads' ``auc`` is computed from."""
    from repro.serve import ScoreQuery
    return [ScoreQuery(s.student_id, s.continuation(0).question_id,
                       s.continuation(0).concept_ids) for s in students]


def probe_labels(students: Sequence[Student]) -> List[int]:
    return [s.continuation(0).correct for s in students]


def _train(encoder: str, directory: Path) -> dict:
    from repro.core import RCKT, RCKTConfig, fit_rckt
    from repro.data import train_test_split
    from repro.serve import InferenceEngine, Service

    dataset = load_corpus()
    fold = train_test_split(dataset, seed=TRAIN_SEED)
    config = RCKTConfig(seed=TRAIN_SEED, **MODEL_CONFIGS[encoder])
    model = RCKT(dataset.num_questions, dataset.num_concepts, config)
    started = time.perf_counter()
    fit_rckt(model, fold.train, fold.validation, eval_stride=2)
    train_s = time.perf_counter() - started
    labels, scores = model.predict_dataset(fold.test)
    heldout = auc(labels, scores)
    labels, scores = model.predict_dataset(fold.train)
    train_auc = auc(labels, scores)
    if heldout < HELDOUT_AUC_FLOOR:
        raise RuntimeError(
            f"{encoder} fixture reached held-out AUC {heldout:.4f}, below "
            f"the {HELDOUT_AUC_FLOOR} floor")
    checkpoint = directory / f"{encoder}.npz"
    InferenceEngine(model).save(checkpoint)

    # The recourse threshold comes from the served score distribution.
    students = build_students(dataset)
    service = Service.from_checkpoint(checkpoint)
    service.execute_batch(history_records(students))
    probes = [reply.score
              for reply in service.execute_batch(probe_queries(students))]
    service.close()
    threshold = float(np.quantile(probes, RECOURSE_QUANTILE))
    return {"encoder": encoder, "config": MODEL_CONFIGS[encoder],
            "train_s": round(train_s, 3), "train_auc": train_auc,
            "heldout_auc": heldout, "probe_min": float(min(probes)),
            "probe_max": float(max(probes)),
            "recourse_threshold": threshold}


def fixture(encoder: str, log=print) -> Fixture:
    """The cached fixture for ``encoder``, training it on first use."""
    directory = BUILD_DIR / f"fixture-v{FIXTURE_VERSION}"
    meta_path = directory / f"{encoder}.json"
    if not meta_path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        log(f"training the {encoder} fixture (first run in this "
            f"checkout) ...")
        meta = _train(encoder, directory)
        tmp = meta_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(meta, indent=1))
        os.replace(tmp, meta_path)
        log(f"  {encoder}: trained in {meta['train_s']:.1f}s, train AUC "
            f"{meta['train_auc']:.4f}, held-out AUC "
            f"{meta['heldout_auc']:.4f}, recourse threshold "
            f"{meta['recourse_threshold']:.4f}")
    meta = json.loads(meta_path.read_text())
    students = build_students(load_corpus())
    return Fixture(encoder, (directory / f"{encoder}.npz").resolve(),
                   students, question_bank(students), meta)
