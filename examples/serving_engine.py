"""Serving RCKT: the multi-student inference engine.

Walks the full ``repro.serve`` lifecycle on a synthetic corpus:

1. Train a small RCKT model.
2. Build an :class:`~repro.serve.InferenceEngine`, warm its per-student
   history caches, and checkpoint it.
3. Serve a mixed batch of "how would this student do on question q?"
   probes three ways — synchronous, micro-batched via submit/flush, and
   after recording fresh responses (incremental re-scoring).
4. Rank candidate next questions through the typed ``Service`` facade
   (a :class:`~repro.serve.RecommendQuery`).

Usage::

    python examples/serving_engine.py
"""

import tempfile
from pathlib import Path

from repro.core import RCKT, RCKTConfig, fit_rckt
from repro.data import make_assist09, train_test_split
from repro.serve import (CandidateQuestion, InferenceEngine,
                         RecommendQuery, ScoreRequest)


def main() -> None:
    print("1) training a small RCKT-DKT ...")
    dataset = make_assist09(scale=0.15, seed=7)
    fold = train_test_split(dataset, seed=0)
    config = RCKTConfig(encoder="dkt", dim=16, layers=1, epochs=4,
                        batch_size=32, lr=2e-3, seed=0)
    model = RCKT(dataset.num_questions, dataset.num_concepts, config)
    fit_rckt(model, fold.train, fold.validation, eval_stride=4)

    print("2) building the serving engine + checkpoint round-trip ...")
    engine = InferenceEngine(model, max_batch=16)
    engine.load_dataset(fold.test)
    path = Path(tempfile.mkdtemp()) / "rckt-engine.npz"
    engine.save(path)
    engine = InferenceEngine.from_checkpoint(path, max_batch=16)
    engine.load_dataset(fold.test)
    print(f"   checkpoint: {path.name}, "
          f"{len(engine.students)} students cached")

    students = sorted({s.student_id for s in fold.test})[:6]
    question = 17
    concepts = (3,)

    print("3) serving scores ...")
    sync = engine.score(students[0], question, concepts)
    print(f"   synchronous: student {students[0]} on q{question} "
          f"-> {sync:.4f}")

    handles = [engine.submit(ScoreRequest(s, question, concepts))
               for s in students]
    engine.flush()
    print("   micro-batched: " +
          ", ".join(f"{h.request.student_id}:{h.value:.4f}"
                    for h in handles))

    engine.record(students[0], question, 1, concepts)
    engine.record(students[0], question, 1, concepts)
    updated = engine.score(students[0], question, concepts)
    print(f"   after two correct answers on q{question}: "
          f"{sync:.4f} -> {updated:.4f}")

    print("4) batched next-question recommendation ...")
    reply = engine.service.execute(RecommendQuery(
        students[0],
        tuple(CandidateQuestion(q, (1 + q % 10,))
              for q in (5, 12, 23, 31, 44)),
        top_k=3))
    for item in reply.items:
        print(f"   q{item.question_id}: "
              f"p(correct)={item.success_probability:.2f}"
              f"  value={item.value:.3f}  score={item.score:.3f}")

    print("5) incremental forward-stream cache ...")
    stats = engine.stream_cache_stats()
    print(f"   {stats['entries']} students cached "
          f"({stats['bytes'] / 1024:.1f} KiB of "
          f"{stats['budget_bytes'] // 2**20} MiB budget), "
          f"{stats['hits']} hits / {stats['misses']} misses, "
          f"{stats['evictions']} evictions")
    print("   record() extends each cached encoder state by one step; "
          "score() only runs the per-request backward streams")


if __name__ == "__main__":
    main()
