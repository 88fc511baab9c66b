"""Sweeping gamma: the knob between in-distribution and shifted accuracy.

gamma=0 is plain cross entropy.  Small gamma trims only the most
giveaway samples; large gamma discards most of the prior-revealing
signal, trading in-distribution accuracy for robustness to the shift.
The same sweep is reachable from the command line, writing a json report:

    debiasvqa gen --out data --seed 0
    debiasvqa sweep data/train.split data/id_test.split data/ood_test.split \
        --gamma 0 --gamma 1 --gamma 2 --gamma 5 --out report.json
"""
import tempfile
from pathlib import Path

from debiasvqa import (
    BenchmarkConfig,
    LossVariant,
    ModelConfig,
    TrainConfig,
    make_benchmark,
    sweep_gamma,
)
from debiasvqa.harness import emit_report

config = BenchmarkConfig()
splits = make_benchmark(config)
model = ModelConfig(vocab_size=config.vocab_size, num_answers=config.num_answers,
                    v_in_dim=config.v_in_dim, seed=0)
base = TrainConfig(variant=LossVariant.ce(), model=model, seed=0)

gammas = [0.0, 0.5, 1.0, 2.0, 5.0]
print(f"training {len(gammas)} models, one per gamma ...")
rows = sweep_gamma(gammas, base, splits)

print("\n  gamma   in-dist   shifted   KL to shifted priors")
for r in rows:
    print(f"  {r.gamma:5.1f}  {r.id_report.overall_accuracy:8.3f}  "
          f"{r.ood_report.overall_accuracy:8.3f}  "
          f"{r.ood_report.kl_to_split_prior.mean():20.2f}")

print()
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "report.json"
    emit_report(rows, path)                      # deterministic bytes
    print(f"wrote {path.name}: {len(path.read_bytes())} bytes for {len(rows)} gamma rows")
print("\nThe shifted-split gain grows with gamma; in-distribution accuracy")
print("holds up at moderate gamma and gives way only at the largest one.")
print("Pick gamma by which split matters to you.")
