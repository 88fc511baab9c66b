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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError, bounded, check_fields, read_text
from .rng import gaussian, mix_seed, uniform_stream

SPLIT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BenchmarkConfig:
    num_qtypes: int = bounded(1, 8)
    answers_per_qtype: int = bounded(2, 5)
    tokens_per_question: int = bounded(1, 4)
    v_in_dim: int = bounded(1, 16)
    prototype_scale: float = 1.0
    noise_std: float = bounded(0.0, 0.1)
    zipf_s: float = bounded(0.0, 1.5, above=True)
    n_train: int = 8000
    n_test: int = 4000
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        # keep cells separable so the benchmark stays solvable from vision
        if self.noise_std >= self.prototype_scale / 4.0:
            raise ConfigError(
                f"noise_std {self.noise_std} too large for prototype_scale "
                f"{self.prototype_scale} (needs noise_std < scale/4)")
        cells = self.num_qtypes * self.answers_per_qtype
        for name in ("n_train", "n_test"):
            if getattr(self, name) < cells:
                raise ConfigError(f"{name} {getattr(self, name)} < number of cells {cells}")

    @property
    def num_answers(self) -> int:
        return self.num_qtypes * self.answers_per_qtype

    @property
    def vocab_size(self) -> int:
        return self.num_qtypes * self.tokens_per_question

    def fingerprint(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class PriorTable:
    """Per-question-type probability rows over the full answer vocabulary."""

    def __init__(self, table: np.ndarray):
        t = np.asarray(table, dtype=np.float64)
        if t.ndim != 2:
            raise ShapeError(f"prior table must be 2-D, got shape {t.shape}")
        if t.size and not t.min() >= 0.0:
            raise ValueError("prior table has negative or NaN entries")
        sums = t.sum(axis=1)
        if t.size and np.abs(sums - 1.0).max() > 1e-9:
            worst = int(np.abs(sums - 1.0).argmax())
            raise ValueError(f"prior row {worst} sums to {sums[worst]}, not 1")
        self.table = t

    @property
    def num_qtypes(self) -> int:
        return self.table.shape[0]

    @property
    def num_answers(self) -> int:
        return self.table.shape[1]

    def row(self, qtype_id: int) -> np.ndarray:
        if not 0 <= qtype_id < self.num_qtypes:
            raise KeyError(f"no prior row for question type {qtype_id} (have {self.num_qtypes})")
        return self.table[qtype_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, PriorTable) and np.array_equal(self.table, other.table)


def _check_priors(priors: PriorTable, config: BenchmarkConfig) -> None:
    """Raise ConfigError unless the table has one row per question type over
    every answer, and each row keeps its mass in its type's answer block."""
    k, a = config.num_qtypes, config.num_answers
    if priors.table.shape != (k, a):
        raise ConfigError(f"prior table shape {priors.table.shape}, expected ({k}, {a})")
    stray = (priors.table > 0) & (np.arange(a) // config.answers_per_qtype != np.arange(k)[:, None])
    if stray.any():
        raise ConfigError(f"prior row of question type {int(stray.any(axis=1).argmax())} "
                          "puts mass outside its answer block")


def _describe(column) -> str:
    """A column's dtype and shape, or its type if it is not an array."""
    return f"{column.dtype} {column.shape}" if isinstance(column, np.ndarray) else type(column).__name__


class _SampleError(ConfigError):
    """Sample ``row`` of a Split breaks the column rule ``rule``."""

    def __init__(self, row: int, rule: str):
        super().__init__(f"sample {row}: {rule}")
        self.row, self.rule = row, rule


@dataclass(eq=False)
class Split:
    """A split as row-aligned columns over its N samples.

    ``answers`` [N] holds int64 answer ids in [0, num_answers) and ``features``
    [N, v_in_dim] finite float64 visual features.  ``qtypes`` [N] (answer //
    answers_per_qtype) and ``tokens`` [N, T] (each row's question template)
    follow from the answers.  Row i of every column is sample i.
    """
    answers: np.ndarray
    features: np.ndarray
    priors: PriorTable
    role: str
    config: BenchmarkConfig
    qtypes: np.ndarray = field(init=False, repr=False)
    tokens: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.role not in ("train", "test"):
            raise ConfigError(f"role must be 'train' or 'test', got {self.role!r}")
        if not (isinstance(self.answers, np.ndarray) and self.answers.ndim == 1
                and np.issubdtype(self.answers.dtype, np.integer)):
            raise ConfigError(f"answers must be a 1-D integer array, got {_describe(self.answers)}")
        want = (len(self.answers), self.config.v_in_dim)
        if not (isinstance(self.features, np.ndarray) and self.features.shape == want
                and (np.issubdtype(self.features.dtype, np.integer)
                     or np.issubdtype(self.features.dtype, np.floating))):
            raise ConfigError(f"features must be an integer or float array of shape {want}, "
                              f"got {_describe(self.features)}")
        _check_priors(self.priors, self.config)
        for bad, rule in (((self.answers < 0) | (self.answers >= self.num_answers), "answer {} out of range"),
                          (~np.isfinite(self.features), "non-finite visual feature")):
            if bad.any():
                raise _SampleError(i := int(np.nonzero(bad)[0][0]), rule.format(self.answers[i]))
        self.answers = self.answers.astype(np.int64, copy=False)  # so qtype * A + answer cannot wrap
        self.qtypes = self.answers // self.config.answers_per_qtype
        self.tokens = question_template(self.qtypes, self.config)

    @property
    def num_qtypes(self) -> int:
        return self.config.num_qtypes

    @property
    def num_answers(self) -> int:
        return self.config.num_answers

    def __len__(self) -> int:
        return len(self.answers)


def qtype_counts(split) -> np.ndarray:
    """Samples per question type [K], read from ``qtypes`` and ``num_qtypes`` only; every type must occur."""
    if len(split.qtypes) == 0:
        raise ValueError("empty split")
    counts = np.bincount(split.qtypes, minlength=split.num_qtypes)
    if (counts == 0).any():
        raise ValueError(f"split has no samples for question type {int(np.argmin(counts))}")
    return counts


def question_template(qtypes, config: BenchmarkConfig) -> np.ndarray:
    """Token ids of each question type's fixed template, disjoint across types: [...] -> [..., T]."""
    t = config.tokens_per_question
    return np.asarray(qtypes)[..., None] * t + np.arange(t)


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
    # largest remainder first, ties broken toward lower answer ids for cross-run stability
    order = np.lexsort((np.arange(len(raw)), counts - raw))
    counts[order[:n - int(counts.sum())]] += 1
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
    _check_priors(priors, config)  # before any draw; Split checks the same table again
    k, m, d = config.num_qtypes, config.answers_per_qtype, config.v_in_dim
    if n < k * m:
        raise ConfigError(f"n={n} below the number of (qtype, answer) cells")
    per_qtype = np.full(k, n // k, dtype=np.int64)
    per_qtype[: n % k] += 1
    counts = np.concatenate([_largest_remainder(priors.row(q), int(per_qtype[q]))[q * m:(q + 1) * m]
                             for q in range(k)])
    gen = uniform_stream(mix_seed(config.seed, "split", role, priors.table.tobytes().hex(), n))
    features = np.concatenate([gaussian(gen, (c, d)) for c in counts if c])
    answers = np.repeat(np.arange(config.num_answers), counts)
    features *= config.noise_std
    features += (cell_prototypes(config) * config.prototype_scale).reshape(-1, d)[answers]
    order = gen.permutation(len(answers))
    return Split(answers[order], features[order], priors, role, config)


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
    Rows are stacked from the columns and formatted 128 at a time (256 or
    512 raised peak memory in a gen-then-eval loop); ``%d`` prints the
    integer-valued float64 ids exactly.
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(split), 128):
            block = np.column_stack([column[start:start + 128] for column in (
                split.qtypes, split.tokens, split.answers, split.features)])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# the bytes on which reading a file line by line and str.splitlines agree
_PLAIN = bytes(range(0x20, 0x7f)) + b"\t\n"


def _plain_line_count(fh) -> int | None:
    """The line count of a binary file of printable ASCII, tabs and newlines
    only, as str.splitlines counts it, read 64 KiB at a time; None if the
    file holds any other byte."""
    count, last = 0, b"\n"
    while chunk := fh.read(1 << 16):
        if chunk.translate(None, _PLAIN):
            return None
        count, last = count + chunk.count(b"\n"), chunk[-1:]
    return count + (last != b"\n")


def _read_rows(path, body, n: int, t: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The [N, t + 2] ids and [N, d] features of the n sample lines, in one pass.

    ``body`` is the list of sample lines, or the binary file at the first of
    them, which np.loadtxt then reads without holding its text.  np.loadtxt
    skips blank lines and numbers rows inconsistently in its messages, so if
    it fails or drops a line, a second pass over the file's lines names the
    first bad line and field: its field count, then loadtxt on each field
    alone with that field's dtype.  numpy 1.x reads "0.7" into an int64
    field as 0 with only a DeprecationWarning, so that warning is raised
    as an error here.
    """
    want, spec = t + 2 + d, [("ids", np.int64, (t + 2,)), ("features", np.float64, (d,))]
    if not n:  # loadtxt warns on empty input
        return np.empty((0, t + 2), dtype=np.int64), np.empty((0, d))
    if isinstance(body, list):
        first = body[0]
    else:
        first = body.readline()
        body.seek(-len(first), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        if len(first.split()) == want:  # bounds loadtxt's row buffer by the data
            try:
                rows = np.loadtxt(body, dtype=spec, comments=None, ndmin=1)
                if len(rows) == n:
                    return rows["ids"], rows["features"]
            except (ValueError, DeprecationWarning):
                pass
        if not isinstance(body, list):
            body = read_text(path).splitlines()[1:]
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


def _read_header(path, line: str) -> tuple[dict, BenchmarkConfig, PriorTable]:
    """The header line's JSON object, its config and its prior table."""
    try:
        header = json.loads(line)
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
    return header, config, priors


def load_split(path) -> Split:
    """Read a split written by :func:`save_split`.

    The sample lines stream from the file into np.loadtxt, so the text is
    never held whole; a file with a byte outside printable ASCII, tabs and
    newlines (CRLF or CR endings, other whitespace, non-ASCII text) is read
    whole instead and split as str.splitlines splits it.  Raises
    DataFormatError naming the first bad line for a malformed
    header or row, a header fingerprint or prior table that breaks its config,
    a non-finite feature, tokens that are not their question type's
    template, or an answer outside its question type's block.
    """
    with open(path, "rb") as fh:
        n = _plain_line_count(fh)
        fh.seek(0)
        if n is None:
            lines = read_text(path).splitlines()
            n, head, body = len(lines), lines[:1], lines[1:]
        else:
            head, body = [fh.readline().decode().removesuffix("\n")][:n], fh  # no header if n is 0
        if not head:
            raise DataFormatError(f"{path}: empty file, expected a header line")
        header, config, priors = _read_header(path, head[0])
        t = config.tokens_per_question
        ids, features = _read_rows(path, body, n - 1, t, config.v_in_dim)
    try:
        split = Split(ids[:, 1 + t].copy(), features.copy(), priors, header["role"], config)
    except _SampleError as exc:
        raise DataFormatError(f"{path}: line {exc.row + 2}: {exc.rule}") from None
    except ConfigError as exc:
        raise DataFormatError(f"{path}: line 1: {exc}") from None
    qtypes, tokens = ids[:, 0], ids[:, 1:1 + t]
    checks = (((qtypes < 0) | (qtypes >= config.num_qtypes), "qtype {} out of range"),
              ((tokens != question_template(qtypes, config)).any(axis=1),
               "tokens are not their question type's template"),
              (split.qtypes != qtypes, "answer outside its question type's block"))
    for bad, what in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise DataFormatError(f"{path}: line {i + 2}: " + what.format(qtypes[i]))
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
