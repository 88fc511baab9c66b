"""A tour of the synthetic changing-priors benchmark.

Each question type is a fixed token template with its own block of
answers.  Train answers follow a long-tailed (Zipf) distribution; the
shifted test split assigns the same probabilities to the same answers in
reverse rank order.  A model that memorizes "this question usually means
that answer" walks straight into the reversal.  Visual features are
noisy prototypes, so the task stays fully solvable from the image.
"""
import tempfile
from pathlib import Path

import numpy as np

from debiasvqa import (
    BenchmarkConfig,
    answer_block,
    bayes_qo_accuracy,
    bias_trap_accuracy,
    build_prior_table,
    build_priors,
    load_split,
    make_benchmark,
    nearest_prototype_accuracy,
    question_template,
    save_split,
)

config = BenchmarkConfig()  # 8 qtypes x 5 answers, 8000 train / 4000 test
train_split, id_test, ood_test = make_benchmark(config)

print("= fixed templates, disjoint vocabulary =")
for q in (0, 1):
    print(f"  qtype {q}: tokens {tuple(question_template(q, config).tolist())}, "
          f"answers {list(answer_block(q, config))}")

print("\n= train priors vs shifted test priors (qtype 0) =")
train_priors, test_priors = build_priors(config)
block = list(answer_block(0, config))
print("  answer     " + "  ".join(f"{a:6d}" for a in block))
print("  p_train    " + "  ".join(f"{train_priors.row(0)[a]:6.3f}" for a in block))
print("  p_shifted  " + "  ".join(f"{test_priors.row(0)[a]:6.3f}" for a in block))
print("  (same masses, opposite rank order)")

print("\n= stratification is exact, not sampled =")
emp = build_prior_table(train_split)
err = np.abs(emp.table - train_priors.table).max()
n_per = config.n_train // config.num_qtypes
print(f"  max |empirical - generating| over all cells: {err:.2e}")
print(f"  every count is within 1 of {n_per} x prior (largest-remainder rounding)")

print("\n= reference numbers the splits come with =")
print(f"  solvable from vision:  nearest-prototype accuracy "
      f"{nearest_prototype_accuracy(ood_test, config):.4f} on the shifted split")
print(f"  question-only ceiling: {bayes_qo_accuracy(train_priors):.4f} "
      f"if priors hold (in-distribution)")
print(f"  question-only trap:    {bias_trap_accuracy(train_priors, test_priors):.4f} "
      f"on the shifted split (always answering the train-dominant answer)")

print("\n= splits round-trip through a plain text format =")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.split"
    save_split(train_split, path)
    loaded = load_split(path)
    same = all(np.array_equal(getattr(loaded, c), getattr(train_split, c))
               for c in ("qtypes", "tokens", "answers", "features"))
    print(f"  wrote {path.stat().st_size} bytes; reloaded equal: {same}")
