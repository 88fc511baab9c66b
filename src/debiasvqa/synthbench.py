"""Synthetic changing-priors benchmark.

Generates a VQA-like dataset where each question type has a long-tailed
answer distribution in train and the rank-reversed distribution in test.
Questions are fixed token templates that reveal only the type, so a model
leaning on question/answer statistics walks straight into the reversed
prior at test time.  Visual features are noisy copies of a per-(type,
answer) prototype vector, so the task is fully solvable from the image.

Splits are exactly stratified (largest-remainder rounding), which makes
prior-recovery checks exact rather than statistical.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataFormatError
from .objectives import PriorTable
from .rng import gaussian, mix_seed, uniform_stream

SPLIT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BenchmarkConfig:
    num_qtypes: int = 8
    answers_per_qtype: int = 5
    tokens_per_question: int = 4
    v_in_dim: int = 16
    prototype_scale: float = 1.0
    noise_std: float = 0.1
    zipf_s: float = 1.5
    n_train: int = 8000
    n_test: int = 4000
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {getattr(self, f.name)!r}")
        if self.num_qtypes < 1:
            raise ConfigError(f"num_qtypes must be >= 1, got {self.num_qtypes}")
        if self.answers_per_qtype < 2:
            raise ConfigError(f"answers_per_qtype must be >= 2, got {self.answers_per_qtype}")
        if self.tokens_per_question < 1:
            raise ConfigError(f"tokens_per_question must be >= 1, got {self.tokens_per_question}")
        if self.v_in_dim < 1:
            raise ConfigError(f"v_in_dim must be >= 1, got {self.v_in_dim}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        # keep cells separable so the benchmark stays solvable from vision
        if self.noise_std >= self.prototype_scale / 4.0:
            raise ConfigError(
                f"noise_std {self.noise_std} too large for prototype_scale "
                f"{self.prototype_scale} (needs noise_std < scale/4)")
        if self.zipf_s <= 0.0:
            raise ConfigError(f"zipf_s must be > 0, got {self.zipf_s}")
        cells = self.num_qtypes * self.answers_per_qtype
        if self.n_train < cells:
            raise ConfigError(f"n_train {self.n_train} < number of cells {cells}")
        if self.n_test < cells:
            raise ConfigError(f"n_test {self.n_test} < number of cells {cells}")

    @property
    def num_answers(self) -> int:
        return self.num_qtypes * self.answers_per_qtype

    @property
    def vocab_size(self) -> int:
        return self.num_qtypes * self.tokens_per_question

    def fingerprint(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(eq=False)
class Split:
    """A split as four row-aligned columns over its N samples.

    ``qtypes`` [N] and ``answers`` [N] are int64 ids, ``tokens`` [N, T]
    holds each row's question template (int64), and ``features``
    [N, v_in_dim] the float64 visual features.  Row i of every column is
    sample i.
    """
    qtypes: np.ndarray
    tokens: np.ndarray
    answers: np.ndarray
    features: np.ndarray
    priors: PriorTable
    role: str
    config: BenchmarkConfig

    def __post_init__(self):
        if self.role not in ("train", "test"):
            raise ConfigError(f"role must be 'train' or 'test', got {self.role!r}")

    @property
    def num_qtypes(self) -> int:
        return self.config.num_qtypes

    @property
    def num_answers(self) -> int:
        return self.config.num_answers

    def __len__(self) -> int:
        return len(self.answers)


def question_template(qtype_id: int, config: BenchmarkConfig) -> tuple[int, ...]:
    """Fixed token ids for a question type; disjoint across types."""
    base = qtype_id * config.tokens_per_question
    return tuple(range(base, base + config.tokens_per_question))


def _templates(qtypes: np.ndarray, config: BenchmarkConfig) -> np.ndarray:
    """Row i is ``question_template(qtypes[i], config)``: [N] -> [N, T]."""
    t = config.tokens_per_question
    return qtypes[:, None] * t + np.arange(t)


def answer_block(qtype_id: int, config: BenchmarkConfig) -> range:
    """Global answer ids owned by a question type; disjoint across types."""
    base = qtype_id * config.answers_per_qtype
    return range(base, base + config.answers_per_qtype)


def build_priors(config: BenchmarkConfig) -> tuple[PriorTable, PriorTable]:
    """Long-tailed train priors and their rank-reversed test counterpart.

    Each qtype's train row places Zipf(s) mass on its answers in a seeded
    random order; the test row assigns the same probabilities to the same
    answers in opposite rank order, so the train-dominant answer becomes
    the test-rarest one.
    """
    k, m = config.num_qtypes, config.answers_per_qtype
    ranks = np.arange(1, m + 1, dtype=np.float64)
    zipf = ranks ** (-config.zipf_s)
    zipf /= zipf.sum()
    train = np.zeros((k, config.num_answers))
    test = np.zeros_like(train)
    for q in range(k):
        gen = uniform_stream(mix_seed(config.seed, "priors", q))
        order = gen.permutation(m)
        block = np.array(answer_block(q, config))
        train[q, block[order]] = zipf
        test[q, block[order]] = zipf[::-1]
    return PriorTable(train), PriorTable(test)


def _largest_remainder(prior_row: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to n, proportional to prior_row, exact."""
    raw = prior_row * n
    counts = np.floor(raw).astype(np.int64)
    short = n - int(counts.sum())
    # ties broken toward lower answer ids for cross-run stability
    order = sorted(range(len(raw)), key=lambda a: (-(raw[a] - counts[a]), a))
    for a in order[:short]:
        counts[a] += 1
    return counts


def cell_prototypes(config: BenchmarkConfig) -> np.ndarray:
    """Unit direction per (qtype, answer) cell, [K, m, v_in_dim]."""
    k, m, d = config.num_qtypes, config.answers_per_qtype, config.v_in_dim
    raw = gaussian(uniform_stream(mix_seed(config.seed, "prototypes")), (k, m, d))
    norms = np.linalg.norm(raw, axis=2, keepdims=True)
    return raw / norms


def generate_split(priors: PriorTable, n: int, role: str,
                   config: BenchmarkConfig) -> Split:
    """Exactly stratified split: per-qtype sizes, then per-answer counts.

    Features are prototype * scale + Gaussian noise * noise_std, drawn in
    canonical (qtype, answer) order from a role-specific stream, then the
    sample order is shuffled with the same stream.
    """
    k = config.num_qtypes
    if n < k * config.answers_per_qtype:
        raise ConfigError(f"n={n} below the number of (qtype, answer) cells")
    if priors.num_qtypes != k or priors.num_answers != config.num_answers:
        raise ConfigError(
            f"prior table shape {priors.table.shape} does not match config "
            f"({k} qtypes, {config.num_answers} answers)")
    per_qtype = np.full(k, n // k, dtype=np.int64)
    per_qtype[: n % k] += 1
    protos = cell_prototypes(config)
    seed = mix_seed(config.seed, "split", role,
                    priors.table.tobytes().hex(), n)
    gen = uniform_stream(seed)
    blocks, qtypes, answers = [], [], []
    for q in range(k):
        block = answer_block(q, config)
        counts = _largest_remainder(priors.row(q), int(per_qtype[q]))
        for a_global in block:
            c = int(counts[a_global])
            if c == 0:
                continue
            noise = gaussian(gen, (c, config.v_in_dim))
            blocks.append(protos[q, a_global - block.start] * config.prototype_scale
                          + noise * config.noise_std)
            qtypes += [q] * c
            answers += [a_global] * c
    order = gen.permutation(len(answers))
    qtypes = np.array(qtypes, dtype=np.int64)[order]
    return Split(qtypes=qtypes,
                 tokens=_templates(qtypes, config),
                 answers=np.array(answers, dtype=np.int64)[order],
                 features=np.concatenate(blocks)[order],
                 priors=priors, role=role, config=config)


def make_benchmark(config: BenchmarkConfig) -> tuple[Split, Split, Split]:
    """Train split, in-distribution test split, and shifted test split.

    The in-distribution test reuses the train priors with fresh noise;
    the shifted test uses the rank-reversed priors.
    """
    train_priors, test_priors = build_priors(config)
    train = generate_split(train_priors, config.n_train, "train", config)
    id_test = generate_split(train_priors, config.n_test, "test", config)
    ood_test = generate_split(test_priors, config.n_test, "test", config)
    return train, id_test, ood_test


def save_split(split: Split, path) -> None:
    """Line-oriented text format: JSON header, then one sample per line.

    Reals use 17 significant digits so the round-trip is bitwise exact.
    Rows are formatted 128 per ``%`` (256 or 512 raised peak memory in a
    gen-then-eval loop); ``%d`` prints the integer-valued float64 ids exactly.
    """
    header = {
        "format_version": SPLIT_FORMAT_VERSION,
        "fingerprint": split.config.fingerprint(),
        "role": split.role,
        "config": split.config.__dict__,
        "priors": [[f"{v:.17g}" for v in row] for row in split.priors.table],
    }
    t, d = split.config.tokens_per_question, split.config.v_in_dim
    row = " ".join(["%d"] * (t + 2) + ["%.17g"] * d) + "\n"
    table = np.column_stack([split.qtypes, split.tokens, split.answers, split.features])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(table), 128):
            block = table[start:start + 128]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_rows(path, body: list[str], t: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The [N, t + 2] ids and [N, d] features of the sample lines, in one pass.

    np.loadtxt skips blank lines and numbers rows inconsistently in its
    messages, so if it fails or drops a line, a second pass names the
    first bad line and field: its field count, then loadtxt on each field
    alone with that field's dtype.  numpy 1.x reads "0.7" into an int64
    field as 0 with only a DeprecationWarning, so that warning is raised
    as an error here.
    """
    want, spec = t + 2 + d, [("ids", np.int64, (t + 2,)), ("features", np.float64, (d,))]
    if not body:  # loadtxt warns on empty input
        return np.empty((0, t + 2), dtype=np.int64), np.empty((0, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        if len(body[0].split()) == want:  # bounds loadtxt's row buffer by the data
            try:
                rows = np.loadtxt(body, dtype=spec, comments=None, ndmin=1)
                if len(rows) == len(body):
                    return rows["ids"], rows["features"]
            except (ValueError, DeprecationWarning):
                pass
        for lineno, line in enumerate(body, start=2):
            fields = line.split()
            if len(fields) != want:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {want} fields, got {len(fields)}")
            for j, field in enumerate(fields):
                dtype = np.dtype(np.int64 if j < t + 2 else np.float64)
                try:
                    np.loadtxt([field], dtype=dtype, comments=None)
                except (ValueError, DeprecationWarning):
                    raise DataFormatError(f"{path}: line {lineno}: field {j + 1}: "
                                          f"could not convert {field!r} to {dtype}") from None
    raise DataFormatError(f"{path}: sample lines do not read as {want} numbers each")


def load_split(path) -> Split:
    """Read a split written by :func:`save_split`.

    Raises DataFormatError naming the first bad line for a malformed
    header or row, a header fingerprint that does not match its config,
    a non-finite feature, tokens that are not their question type's
    template, or an answer outside its question type's block.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: line 1: bad header: {exc}") from None
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: line 1: header must be a JSON object")
    version = header.get("format_version")
    if version != SPLIT_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: line 1: format version {version!r}, "
            f"expected {SPLIT_FORMAT_VERSION}")
    for key in ("config", "fingerprint", "priors", "role"):
        if key not in header:
            raise DataFormatError(f"{path}: line 1: header missing {key!r}")
    try:
        config = BenchmarkConfig(**header["config"])
    except (TypeError, ConfigError) as exc:
        raise DataFormatError(f"{path}: line 1: bad config: {exc}") from None
    if header["fingerprint"] != config.fingerprint():
        raise DataFormatError(f"{path}: line 1: fingerprint {header['fingerprint']!r} does not "
                              f"match its config ({config.fingerprint()!r})")
    try:
        priors = PriorTable(np.array(
            [[float(v) for v in row] for row in header["priors"]]))
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: line 1: bad prior table: {exc}") from None
    if priors.table.shape != (config.num_qtypes, config.num_answers):
        raise DataFormatError(f"{path}: line 1: prior table shape {priors.table.shape}, "
                              f"expected ({config.num_qtypes}, {config.num_answers})")
    t = config.tokens_per_question
    ids, features = _read_rows(path, lines[1:], t, config.v_in_dim)
    qtypes, answers = ids[:, 0].copy(), ids[:, 1 + t].copy()
    tokens, features = ids[:, 1:1 + t].copy(), features.copy()
    try:
        split = Split(qtypes, tokens, answers, features, priors, header["role"], config)
    except ConfigError as exc:
        raise DataFormatError(f"{path}: line 1: {exc}") from None
    checks = (((qtypes < 0) | (qtypes >= config.num_qtypes), "qtype {q} out of range"),
              ((answers < 0) | (answers >= config.num_answers), "answer {a} out of range"),
              (~np.isfinite(features).all(axis=1), "non-finite visual feature"),
              ((tokens != _templates(qtypes, config)).any(axis=1),
               "tokens are not their question type's template"),
              (answers // config.answers_per_qtype != qtypes,
               "answer outside its question type's block"))
    for bad, what in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise DataFormatError(
                f"{path}: line {i + 2}: " + what.format(q=qtypes[i], a=answers[i]))
    return split


def nearest_prototype_accuracy(split: Split, config: BenchmarkConfig) -> float:
    """Accuracy of classifying each feature to its closest cell prototype.

    Brute force over all K*m cells; the reference for "the benchmark is
    solvable from vision alone".
    """
    protos = (cell_prototypes(config) * config.prototype_scale).reshape(
        config.num_answers, config.v_in_dim)
    feats = split.features
    d2 = ((feats[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    return float((pred == split.answers).mean())


def bayes_qo_accuracy(priors: PriorTable) -> float:
    """Best possible accuracy for a predictor that sees only the qtype."""
    return float(priors.table.max(axis=1).mean())


def bias_trap_accuracy(train_priors: PriorTable, test_priors: PriorTable) -> float:
    """Test accuracy of always answering each qtype's train-mode answer.

    Closed form: mean over qtypes of P_test(argmax_a P_train(a|q) | q).
    Under rank-reversed priors this lands on the rarest test answer.
    """
    if train_priors.table.shape != test_priors.table.shape:
        raise ValueError("prior tables must have matching shapes")
    picks = train_priors.table.argmax(axis=1)
    rows = np.arange(train_priors.num_qtypes)
    return float(test_priors.table[rows, picks].mean())
