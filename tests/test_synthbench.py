"""Benchmark generator: priors, stratification, file format, reference accuracies."""
import json
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_benchmark_config
from debiasvqa import (
    BenchmarkConfig,
    PriorTable,
    Split,
    answer_block,
    bayes_qo_accuracy,
    bias_trap_accuracy,
    build_priors,
    build_prior_table,
    cell_prototypes,
    generate_split,
    load_split,
    make_benchmark,
    nearest_prototype_accuracy,
    question_template,
    save_split,
)
from debiasvqa.errors import ConfigError, DataFormatError
from debiasvqa.synthbench import _largest_remainder, qtype_counts


def small_config(**overrides):
    base = dict(num_qtypes=2, answers_per_qtype=3, tokens_per_question=2,
                v_in_dim=4, zipf_s=1.0, n_train=44, n_test=22, seed=3)
    base.update(overrides)
    return BenchmarkConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_overlapping_noise():
    with pytest.raises(ConfigError):
        small_config(noise_std=0.25, prototype_scale=1.0)


def test_config_rejects_too_few_samples():
    with pytest.raises(ConfigError):
        small_config(n_train=5)
    with pytest.raises(ConfigError):
        small_config(n_test=5)


def test_config_rejects_degenerate_shapes():
    with pytest.raises(ConfigError):
        small_config(answers_per_qtype=1)
    with pytest.raises(ConfigError):
        small_config(zipf_s=0.0)


def test_fingerprint_tracks_config():
    assert small_config().fingerprint() == small_config().fingerprint()
    assert small_config().fingerprint() != small_config(seed=4).fingerprint()


# ---------------------------------------------------------------------------
# vocabulary partition
# ---------------------------------------------------------------------------

def test_templates_and_answer_blocks_partition_the_vocab():
    cfg = small_config()
    tokens, answers = set(), set()
    for q in range(cfg.num_qtypes):
        t = question_template(q, cfg)
        assert len(t) == cfg.tokens_per_question
        assert not tokens & set(t)
        tokens |= set(t)
        b = set(answer_block(q, cfg))
        assert not answers & b
        answers |= b
    assert tokens == set(range(cfg.vocab_size))
    assert answers == set(range(cfg.num_answers))


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def test_train_priors_carry_zipf_masses():
    cfg = small_config()  # zipf_s=1, three answers: masses 6/11, 3/11, 2/11
    train, _ = build_priors(cfg)
    expected = sorted([6 / 11, 3 / 11, 2 / 11])
    for q in range(cfg.num_qtypes):
        row = train.row(q)
        block = np.array(answer_block(q, cfg))
        assert np.allclose(sorted(row[block]), expected, atol=1e-12)
        outside = np.delete(row, block)
        assert np.array_equal(outside, np.zeros_like(outside))


def test_test_priors_reverse_the_ranks():
    cfg = small_config()
    train, test = build_priors(cfg)
    m = cfg.answers_per_qtype
    for q in range(cfg.num_qtypes):
        block = np.array(answer_block(q, cfg))
        by_train_mass = block[np.argsort(-train.row(q)[block])]
        for i, answer in enumerate(by_train_mass):
            mirror = by_train_mass[m - 1 - i]
            assert abs(test.row(q)[answer] - train.row(q)[mirror]) < 1e-15


def test_prior_rows_sum_to_one():
    train, test = build_priors(small_config())
    for table in (train.table, test.table):
        assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-12


def test_prior_order_varies_across_qtypes():
    # the dominant answer should not sit at the same block offset everywhere
    cfg = BenchmarkConfig(seed=0)
    train, _ = build_priors(cfg)
    offsets = {int(train.row(q).argmax()) - q * cfg.answers_per_qtype
               for q in range(cfg.num_qtypes)}
    assert len(offsets) > 1


# ---------------------------------------------------------------------------
# stratified counts
# ---------------------------------------------------------------------------

def test_largest_remainder_exact_case():
    assert np.array_equal(_largest_remainder(np.array([0.8, 0.2]), 10), [8, 2])


def test_largest_remainder_tie_prefers_low_id():
    assert np.array_equal(_largest_remainder(np.array([0.5, 0.5]), 5), [3, 2])


def test_largest_remainder_sums_to_n():
    rng = np.random.default_rng(31)
    for _ in range(50):
        row = rng.random(7)
        row /= row.sum()
        n = int(rng.integers(1, 200))
        counts = _largest_remainder(row, n)
        assert counts.sum() == n
        assert np.abs(counts - row * n).max() < 1.0


def _largest_remainder_by_rule(row, n):
    """The documented rule: floor, then one more to each of the largest
    remainders, ties toward the lower answer id."""
    raw = row * n
    counts = np.floor(raw).astype(np.int64)
    order = sorted(range(len(raw)), key=lambda a: (-(raw[a] - counts[a]), a))
    for a in order[:n - int(counts.sum())]:
        counts[a] += 1
    return counts


# small integer weights give exact ties and zeros among the remainders
@settings(max_examples=300)
@given(weights=st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
       n=st.integers(0, 1000))
def test_largest_remainder_follows_the_rule(weights, n):
    row = np.array(weights, dtype=np.float64) / sum(weights)
    counts = _largest_remainder(row, n)
    assert counts.dtype == np.int64 and counts.sum() == n
    assert np.array_equal(counts, _largest_remainder_by_rule(row, n))


def test_integral_counts_recover_priors():
    # 22 per qtype with masses {6,3,2}/11 gives integer cell counts
    cfg = small_config()
    train, _, _ = make_benchmark(cfg)
    emp = build_prior_table(train)
    assert np.abs(emp.table - train.priors.table).max() < 1e-12
    for q in range(cfg.num_qtypes):
        block = np.array(answer_block(q, cfg))
        counts = sorted(np.round(emp.table[q, block] * 22).astype(int))
        assert counts == [4, 6, 12]


def test_default_counts_within_rounding_of_priors():
    cfg = BenchmarkConfig()
    train, _, _ = make_benchmark(cfg)
    per_qtype = np.bincount(train.qtypes, minlength=cfg.num_qtypes)
    assert np.array_equal(per_qtype, np.full(cfg.num_qtypes, cfg.n_train // cfg.num_qtypes))
    counts = np.zeros((cfg.num_qtypes, cfg.num_answers))
    np.add.at(counts, (train.qtypes, train.answers), 1.0)
    raw = train.priors.table * per_qtype[:, None]
    assert np.abs(counts - raw).max() < 1.0


# ---------------------------------------------------------------------------
# split generation
# ---------------------------------------------------------------------------

def test_samples_respect_templates_and_blocks():
    cfg = small_config()
    train, id_test, ood_test = make_benchmark(cfg)
    for split in (train, id_test, ood_test):
        assert split.features.shape == (len(split), cfg.v_in_dim)
        for q, tokens, a in zip(split.qtypes, split.tokens, split.answers):
            assert np.array_equal(tokens, question_template(q, cfg))
            assert np.array_equal(tokens, question_template(int(q), cfg))
            assert a in answer_block(q, cfg)
        # the whole column at once: [N] -> [N, T], row for row
        assert np.array_equal(question_template(split.qtypes, cfg), split.tokens)
    assert question_template(np.array([[1], [0]]), cfg).tolist() == [[[2, 3]], [[0, 1]]]


def test_generation_is_deterministic():
    cfg = small_config()
    a = make_benchmark(cfg)
    b = make_benchmark(cfg)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.tokens, sb.tokens)
        assert np.array_equal(sa.answers, sb.answers)
        assert np.array_equal(sa.qtypes, sb.qtypes)


def test_seed_changes_features():
    f1 = make_benchmark(small_config(seed=1))[0].features
    f2 = make_benchmark(small_config(seed=2))[0].features
    assert not np.array_equal(f1, f2)


def test_roles_and_prior_wiring():
    train, id_test, ood_test = make_benchmark(small_config())
    assert train.role == "train"
    assert id_test.role == "test" and ood_test.role == "test"
    assert id_test.priors == train.priors
    assert ood_test.priors != train.priors


def test_noise_free_features_equal_scaled_prototypes():
    cfg = small_config(noise_std=0.0, prototype_scale=2.0)
    train, _, _ = make_benchmark(cfg)
    protos = cell_prototypes(cfg) * cfg.prototype_scale
    local = train.answers - train.qtypes * cfg.answers_per_qtype
    assert np.array_equal(train.features, protos[train.qtypes, local])


def test_prototypes_are_unit_norm():
    protos = cell_prototypes(small_config())
    norms = np.linalg.norm(protos, axis=2)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_generate_split_rejects_mismatched_priors():
    cfg = small_config()
    bad = PriorTable(np.full((3, 3), 1 / 3))
    with pytest.raises(ConfigError):
        generate_split(bad, cfg.n_train, "train", cfg)


def test_generate_split_rejects_prior_mass_outside_the_answer_block():
    cfg = BenchmarkConfig()
    uniform = PriorTable(np.full((cfg.num_qtypes, cfg.num_answers), 1 / cfg.num_answers))
    with pytest.raises(ConfigError, match="question type 0 puts mass outside its answer block"):
        generate_split(uniform, 8000, "test", cfg)
    cfg = small_config()
    table = build_priors(cfg)[0].table.copy()
    table[1] = [0.5, 0.0, 0.0, 0.5, 0.0, 0.0]
    with pytest.raises(ConfigError, match="question type 1 puts mass outside"):
        generate_split(PriorTable(table), cfg.n_train, "train", cfg)


def test_generate_split_rejects_tiny_n():
    cfg = small_config()
    train_priors, _ = build_priors(cfg)
    with pytest.raises(ConfigError):
        generate_split(train_priors, 5, "train", cfg)


def test_column_shapes_and_len():
    train = make_benchmark(small_config())[0]
    assert len(train) == 44
    assert train.qtypes.shape == train.answers.shape == (44,)
    assert train.tokens.shape == (44, 2)
    assert train.features.shape == (44, 4)
    for column in (train.qtypes, train.tokens, train.answers):
        assert column.dtype == np.int64


def test_qtype_counts_counts_each_question_type_and_names_the_first_missing_one():
    def columns(qtypes, k):  # only the two columns the rule reads
        return SimpleNamespace(qtypes=np.array(qtypes, dtype=np.int64), num_qtypes=k)
    assert qtype_counts(columns([2, 0, 2, 1, 2], 3)).tolist() == [1, 1, 3]
    train = make_benchmark(small_config())[0]
    assert np.array_equal(qtype_counts(train), np.bincount(train.qtypes))
    with pytest.raises(ValueError, match="^empty split$"):
        qtype_counts(columns([], 3))
    with pytest.raises(ValueError, match="^split has no samples for question type 1$"):
        qtype_counts(columns([0, 3, 0, 4], 5))


def test_split_derives_qtypes_and_tokens_from_answers():
    cfg = small_config()
    answers, features = np.array([4, 0, 5, 2]), np.zeros((4, cfg.v_in_dim))
    split = Split(answers, features, build_priors(cfg)[0], "test", cfg)
    assert [f.name for f in fields(Split) if f.init] == ["answers", "features", "priors",
                                                         "role", "config"]
    assert np.array_equal(split.qtypes, answers // cfg.answers_per_qtype)
    assert split.tokens.tolist() == [list(question_template(q, cfg)) for q in (1, 0, 1, 0)]
    with pytest.raises(TypeError):
        Split(answers, features, build_priors(cfg)[0], "test", cfg, qtypes=split.qtypes)


@pytest.mark.parametrize("answers, features, message", [
    (np.arange(400) % 6, np.zeros((407, 4)), r"features must be an integer or float array of "
                                            r"shape \(400, 4\), got float64 \(407, 4\)"),
    (np.arange(400) % 6, np.zeros((393, 4)), r"features .* got float64 \(393, 4\)"),
    (np.arange(400) % 6, np.zeros((400, 8)), r"features .* got float64 \(400, 8\)"),
    (np.arange(400) % 6, np.zeros((400, 4)).tolist(), "features .* got list"),
    (np.arange(400) % 6, np.zeros(400), r"features .* got float64 \(400,\)"),
    (np.arange(400) % 6, np.zeros((400, 4)).astype(str), r"features .* got <U\d+ \(400, 4\)"),
    (np.arange(400) % 6, np.zeros((400, 4), dtype=object), r"features .* got object \(400, 4\)"),
    (np.arange(400) % 6, np.zeros((400, 4), dtype=complex), r"features .* got complex128 \(400, 4\)"),
    (np.arange(400) % 6, np.zeros((400, 4), dtype=bool), r"features .* got bool \(400, 4\)"),
    (np.arange(400.0) % 6, np.zeros((400, 4)), "answers must be a 1-D integer array, got float64"),
    (np.zeros((400, 1), dtype=np.int64), np.zeros((400, 4)), r"answers .* got int64 \(400, 1\)"),
    ([0, 1], np.zeros((2, 4)), "answers .* got list"),
], ids=["extra-rows", "missing-rows", "wide", "list-features", "1-d-features", "str-features",
        "object-features", "complex-features", "bool-features", "float-answers", "2-d-answers",
        "list-answers"])
def test_split_rejects_misshapen_columns(answers, features, message):
    cfg = small_config()
    with pytest.raises(ConfigError, match=message):
        Split(answers, features, build_priors(cfg)[0], "train", cfg)


@pytest.mark.parametrize("answer, feature, message", [
    (6, 0.0, "sample 2: answer 6 out of range"),  # small_config has 6 answers
    (-1, 0.0, "sample 2: answer -1 out of range"),
    (0, np.nan, "sample 2: non-finite visual feature"),
    (0, np.inf, "sample 2: non-finite visual feature"),
], ids=["answer-num-answers", "answer-negative", "nan-feature", "inf-feature"])
def test_split_rejects_rows_no_consumer_can_use(answer, feature, message):
    cfg = small_config()
    answers, features = np.arange(8) % cfg.num_answers, np.zeros((8, cfg.v_in_dim))
    answers[[2, 6]], features[[2, 6], 1] = answer, feature  # the first bad sample is named
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Split(answers, features, build_priors(cfg)[0], "train", cfg)


@pytest.mark.parametrize("table, message", [
    (np.full((1, 6), 1 / 6), r"prior table shape \(1, 6\), expected \(2, 6\)"),
    (np.full((2, 3), 1 / 3), r"prior table shape \(2, 3\), expected \(2, 6\)"),
    ([[0.5, 0.5, 0, 0, 0, 0], [0.5, 0, 0, 0.5, 0, 0]],
     "prior row of question type 1 puts mass outside its answer block"),
], ids=["fewer-qtypes", "fewer-answers", "off-block"])
def test_split_rejects_priors_that_break_the_layout(table, message):
    cfg = small_config()
    with pytest.raises(ConfigError, match=message):
        Split(np.array([0, 3]), np.zeros((2, cfg.v_in_dim)), PriorTable(table), "train", cfg)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    cfg = small_config()
    train = make_benchmark(cfg)[0]
    path = tmp_path / "train.split"
    save_split(train, path)
    loaded = load_split(path)
    assert loaded.role == train.role
    assert loaded.config == train.config
    assert loaded.priors == train.priors
    for column in ("qtypes", "tokens", "answers", "features"):
        assert np.array_equal(getattr(loaded, column), getattr(train, column)), column


def test_load_header_only_file(tmp_path):
    cfg = small_config()
    train = make_benchmark(cfg)[0]
    path = tmp_path / "empty.split"
    save_split(train, path)
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n")
    assert len(load_split(path)) == 0


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "zero.split"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty file"):
        load_split(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.split"
    path.write_text("not json\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_split(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(DataFormatError, match="line 1: header must be a JSON object"):
        load_split(path)
    save_split(make_benchmark(small_config())[0], path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["role"] = "val"
    path.write_text("\n".join([json.dumps(header, sort_keys=True), *lines[1:]]) + "\n")
    with pytest.raises(DataFormatError, match="line 1: role must be 'train' or 'test', got 'val'"):
        load_split(path)


def test_load_rejects_version_mismatch(tmp_path):
    cfg = small_config()
    path = tmp_path / "v.split"
    save_split(make_benchmark(cfg)[0], path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="format version"):
        load_split(path)


def test_load_names_the_corrupt_line(tmp_path):
    cfg = small_config()
    path = tmp_path / "c.split"
    save_split(make_benchmark(cfg)[0], path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + " 1.0"  # extra field on line 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 4"):
        load_split(path)


def test_load_rejects_non_numeric_field(tmp_path):
    cfg = small_config()
    path = tmp_path / "n.split"
    save_split(make_benchmark(cfg)[0], path)
    lines = path.read_text().splitlines()
    fields = lines[2].split()
    fields[-1] = "banana"
    lines[2] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_split(path)


def test_load_rejects_out_of_range_answer(tmp_path):
    cfg = small_config()
    path = tmp_path / "r.split"
    save_split(make_benchmark(cfg)[0], path)
    lines = path.read_text().splitlines()
    fields = lines[1].split()
    fields[1 + cfg.tokens_per_question] = "999"
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="answer 999"):
        load_split(path)


def test_load_rejects_missing_header_key(tmp_path):
    cfg = small_config()
    path = tmp_path / "m.split"
    save_split(make_benchmark(cfg)[0], path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["priors"]
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="priors"):
        load_split(path)


# ---------------------------------------------------------------------------
# reference accuracies
# ---------------------------------------------------------------------------

def test_nearest_prototype_is_perfect_without_noise():
    cfg = small_config(noise_std=0.0)
    train, _, ood_test = make_benchmark(cfg)
    assert nearest_prototype_accuracy(train, cfg) == 1.0
    assert nearest_prototype_accuracy(ood_test, cfg) == 1.0


def test_bayes_qo_accuracy_is_mean_row_max():
    priors = PriorTable([[0.6, 0.4], [0.5, 0.5]])
    assert abs(bayes_qo_accuracy(priors) - 0.55) < 1e-15


def test_bias_trap_hits_the_smallest_mass():
    cfg = small_config()
    train, test = build_priors(cfg)
    got = bias_trap_accuracy(train, test)
    # closed form: the train-dominant answer carries the smallest test mass
    masses = np.arange(1.0, cfg.answers_per_qtype + 1) ** -cfg.zipf_s
    masses /= masses.sum()
    assert abs(got - masses.min()) < 1e-12
    # independent per-qtype loop
    by_hand = np.mean([test.row(q)[int(train.row(q).argmax())]
                       for q in range(cfg.num_qtypes)])
    assert got == by_hand


def test_bias_trap_rejects_mismatched_tables():
    with pytest.raises(ValueError):
        bias_trap_accuracy(PriorTable([[0.5, 0.5]]), PriorTable([[1.0, 0.0], [0.0, 1.0]]))


def test_toy_config_round_numbers():
    # the toy fixture used across the suite keeps every qtype at n/K samples
    cfg = toy_benchmark_config()
    train, id_test, ood_test = make_benchmark(cfg)
    assert len(train) == 64 and len(id_test) == 32 and len(ood_test) == 32
    assert np.array_equal(np.bincount(train.qtypes), [32, 32])
