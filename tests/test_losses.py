"""Tests for the objective families and synthetic generators."""

import csv
import errno
import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from dpclip import _dataset_csv, losses
from dpclip.clipping import row_norms
from dpclip.losses import (
    Dataset,
    Problem,
    QvSpec,
    geometric_median_problem,
    hard_instance_problem,
    heavy_tailed_logistic_dataset,
    load_dataset_csv,
    logistic_grad,
    logistic_grad_norm_exact,
    logistic_loss,
    logistic_problem,
    lower_bound_loss,
    planted_logistic_dataset,
    sample_Qv_many,
    sharpness_radius,
)
from dpclip.optimizer import reference_minimum


def central_difference(fun, w, step=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.size):
        up = w.copy()
        down = w.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fun(up) - fun(down)) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------


def test_dataset_validation_and_bias():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, -1]))
    ds = Dataset(np.array([[1.0, 2.0]]), np.array([0]))
    with_bias = ds.with_bias()
    assert with_bias.features.shape == (1, 3)
    assert with_bias.features[0, -1] == 1.0
    with pytest.raises(ValueError):
        with_bias.with_bias()
    # a float label was truncated (0.5 -> 0), NaN failed inside numpy, and
    # 1e20 left the int64 range
    for labels, row in (([0.5, 1.7, 2.2], 0), ([0.0, 1.0, math.nan], 2), ([0, math.inf, 1], 1),
                        ([0.0, 1e20, 1.0], 1)):
        with pytest.raises(ValueError, match=f"non-integral label in row {row}$"):
            Dataset(np.ones((3, 2)), labels)
    assert np.array_equal(Dataset(np.ones((2, 2)), [1.0, 0.0]).labels, [1, 0])
    labels = np.array([0, 1])
    assert Dataset(np.ones((2, 2)), labels).labels is labels


def test_dataset_rejects_non_finite_features():
    for bad in (math.nan, math.inf, -math.inf):
        features = np.ones((4, 2))
        features[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite feature in row 2"):
            Dataset(features, np.zeros(4, dtype=int))


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n\n", "empty dataset file"),
        ("x1,x2,label\n\n", "dataset file has a header but no rows"),
        ("a\n1.0\n", "rows must contain at least one feature and a label"),
        ("x1,x2,label\n1.0,2.0,0\n\n3.0,4.0,1\n1.0,1\n",
         "the number of columns changed from 3 to 2 at row 3"),
        ("x1,x2,label\n1.0,2.0,0\n3.0,abc,1\n", r"'abc' to float64 at row \d+, column 2"),
        ("1.0,2.0,0\n3.0,4.0,1 # note\n", r"'1 # note' to float64 at row \d+, column 3"),
        ("1.0,2.0,0\n1.0,2.0,0.5\n", "non-integral label in row 1$"),
        ("1.0,2.0,0\n1.0,2.0,nan\n", "non-integral label in row 1$"),
        ("1.0,2.0,0\n1.0,2.0,1e300\n", "non-integral label in row 1$"),
        ("1.0,2.0,0.5\n", "non-integral label in row 0$"),
        ("1.0,2.0,0\n1.0,1\n", "the number of columns changed from 3 to 2 at row 2"),
    ],
    ids=["empty", "header-only", "one-field", "ragged", "non-numeric", "hash-not-a-comment",
         "non-integer-label", "nan-label", "huge-label", "lone-non-integer-label",
         "ragged-headerless"],
)
def test_csv_loader_error_messages(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    for append_bias in (False, True):
        with pytest.raises(ValueError, match=message):
            load_dataset_csv(path, append_bias=append_bias)


def test_csv_loader_keeps_the_first_row_after_a_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,2\n".encode("utf-8"))
    for append_bias in (False, True):
        ds = load_dataset_csv(path, append_bias=append_bias)
        assert ds.n == 3 and np.array_equal(ds.labels, [0, 1, 2])
        assert np.array_equal(ds.features[:, :2], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    header = tmp_path / "bom-header.csv"
    header.write_bytes("\ufeffx1,x2,label\n1.0,2.0,0\n".encode("utf-8"))
    assert load_dataset_csv(header).n == 1


def _python_parse(path, append_bias):
    """Reference parse: csv records, float() per token, blank records skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = [record for record in csv.reader(fh) if record]
    try:
        [float(tok) for tok in records[0]]
    except ValueError:
        records = records[1:]  # header row
    values = np.array([[float(tok) for tok in record] for record in records])
    features = values[:, :-1]
    if append_bias:
        features = np.hstack([features, np.ones((len(values), 1))])
    return features, values[:, -1].astype(int)


def _csv_texts():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-6, 7, size=(40, 3))
    X[0, 0] = -0.0
    y = rng.integers(0, 4, size=40).tolist()
    reprs = [[repr(v) for v in x] + [str(c)] for x, c in zip(X.tolist(), y)]
    g9 = [[f"{v:.9g}" for v in x] + [str(c)] for x, c in zip(X.tolist(), y)]

    def lines(rows, sep=","):
        return [sep.join(row) for row in rows]

    return {
        "repr-header": "x1,x2,x3,label\n" + "\n".join(lines(reprs)) + "\n",
        "g9-headerless": "\n".join(lines(g9)) + "\n",
        "blank-lines": "\n\nx1,x2,x3,label\n\n" + "\n\n".join(lines(reprs[:6])) + "\n\n",
        "crlf": "\r\nx1,x2,x3,label\r\n" + "\r\n\r\n".join(lines(g9[:6])) + "\r\n",
        "spaces": "\n".join(f" {line} " for line in lines(reprs[:6], " , ")),
        "quoted": "\n".join(f'"{line}"' for line in lines(g9[:6], '","')) + "\n",
        "one-row": ",".join(reprs[1]),
        "short-header": "a,b,label\n1.5,-2.0,1\n0.0,3.25,0\n",
        "one-line": "1.0,2.0,0\n",
    }


@pytest.mark.parametrize("name", list(_csv_texts()))
def test_csv_loader_matches_python_parse(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(_csv_texts()[name].encode("utf-8"))
    for append_bias in (False, True):
        ds = load_dataset_csv(path, append_bias=append_bias)
        features, labels = _python_parse(path, append_bias)
        assert ds.bias_appended == append_bias
        assert ds.features.flags.c_contiguous
        assert ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.labels, labels)


def test_csv_loader_bias_path_matches_with_bias(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "data.csv"
    X, y = rng.normal(size=(50, 3)), rng.integers(0, 3, 50)
    rows = [",".join(map(repr, x.tolist())) + f",{c}" for x, c in zip(X, y)]
    path.write_text("a,b,c,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    direct = load_dataset_csv(path, append_bias=True)
    two_step = load_dataset_csv(path).with_bias()
    assert direct.bias_appended and two_step.bias_appended
    assert np.array_equal(direct.features, two_step.features)
    assert np.array_equal(direct.labels, two_step.labels)
    assert direct.features.flags.c_contiguous


def _cache_entries(home):
    """Names of every file in the dpclip cache under ``home``."""
    return sorted(p.name for p in (home / "dpclip").glob("*"))


def _counting_loadtxt(monkeypatch):
    calls = []
    parse = np.loadtxt

    def loadtxt(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return calls


@pytest.mark.parametrize("name", list(_csv_texts()))
def test_csv_cache_hit_is_bitwise_the_parse(tmp_path, monkeypatch, private_cache_home, name):
    path = tmp_path / "data.csv"
    path.write_bytes(_csv_texts()[name].encode("utf-8"))
    key = hashlib.sha256(path.read_bytes()).hexdigest()
    misses = {}
    for append_bias in (False, True):
        shutil.rmtree(private_cache_home, ignore_errors=True)
        misses[append_bias] = load_dataset_csv(path, append_bias=append_bias)
        assert _cache_entries(private_cache_home) == [f"{_dataset_csv.TAG}-{key}.npy"]
    # the entry left is the biased load's: it must hold the parse, not the
    # array after its label column was overwritten
    calls = _counting_loadtxt(monkeypatch)
    for append_bias, miss in misses.items():
        hit = load_dataset_csv(path, append_bias=append_bias)
        assert hit.bias_appended == append_bias and hit.features.flags.c_contiguous
        assert hit.features.shape == miss.features.shape
        assert hit.features.tobytes() == miss.features.tobytes()
        assert hit.labels.dtype == miss.labels.dtype
        assert hit.labels.tobytes() == miss.labels.tobytes()
    assert calls == []


def test_csv_cache_defaults_to_home_cache(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,0\n", encoding="utf-8")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for value in (None, "", "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        load_dataset_csv(path)
        assert len(_cache_entries(tmp_path / "home" / ".cache")) == 1
    assert not (tmp_path / "relative").exists()


def test_csv_cache_rewrite_with_same_size_and_mtime_is_parsed_again(
    tmp_path, private_cache_home
):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n", encoding="utf-8")
    assert load_dataset_csv(path).features[1, 1] == 4.0
    before = path.stat()
    path.write_text("1.0,2.0,0\n3.0,5.0,1\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_dataset_csv(path).features[1, 1] == 5.0
    assert len(_cache_entries(private_cache_home)) == 2


def test_csv_cache_keeps_the_most_recently_used_entries(tmp_path, private_cache_home):
    cache = private_cache_home / "dpclip"
    cache.mkdir(parents=True)
    # an older tag's entry counts against the bound; other files are not entries
    (cache / "loadtxt0-stale.npy").write_bytes(b"")
    (cache / "notes.txt").write_bytes(b"")
    start = time.time() - 3600
    os.utime(cache / "loadtxt0-stale.npy", (start, start))

    def load(i):
        path = tmp_path / f"data{i}.csv"
        path.write_text(f"{i}.0,2.0,0\n", encoding="utf-8")
        load_dataset_csv(path)
        return f"{_dataset_csv.TAG}-{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"

    # each load is back-dated by a distinct second after it runs, so the order
    # of use does not rest on the file system's timestamp resolution
    names = []
    for i in range(10):
        names.append(load(i))
        os.utime(cache / names[i], (start + 1 + i, start + 1 + i))
    assert _dataset_csv.KEEP == 8
    assert _cache_entries(private_cache_home) == sorted([*names[2:], "notes.txt"])
    # a hit refreshes its entry, so the next new entry deletes the one after it
    assert load(2) == names[2]
    newest = load(10)
    kept = [names[2], *names[4:], newest, "notes.txt"]
    assert _cache_entries(private_cache_home) == sorted(kept)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda entry: entry.write_bytes(entry.read_bytes()[:-8]),
        lambda entry: entry.write_bytes(entry.read_bytes()[:20]),
        lambda entry: np.save(entry, np.zeros((2, 4))),
        lambda entry: np.save(entry, np.zeros((2, 3), dtype=np.float32)),
        lambda entry: np.save(entry, np.zeros(6)),
    ],
    ids=["truncated-data", "truncated-header", "other-columns", "float32", "one-dimensional"],
)
def test_csv_cache_bad_entry_is_parsed_again_and_rewritten(
    tmp_path, monkeypatch, private_cache_home, spoil
):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,label\n1.5,-2.0,1\n0.0,3.25,0\n", encoding="utf-8")
    first = load_dataset_csv(path)
    (name,) = _cache_entries(private_cache_home)
    entry = private_cache_home / "dpclip" / name
    good = entry.read_bytes()
    spoil(entry)
    calls = _counting_loadtxt(monkeypatch)
    again = load_dataset_csv(path)
    assert len(calls) == 1
    assert again.features.tobytes() == first.features.tobytes()
    assert np.array_equal(again.labels, first.labels)
    assert _cache_entries(private_cache_home) == [name] and entry.read_bytes() == good


def _write_half_then_fail(fh, array, **kwargs):
    fh.write(b"\x93NUMPY")
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("case", ["not-a-directory", "disk-full"])
def test_csv_cache_unwritable_just_parses(tmp_path, monkeypatch, private_cache_home, case):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n", encoding="utf-8")
    if case == "not-a-directory":
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    else:
        monkeypatch.setattr(np.lib.format, "write_array", _write_half_then_fail)
    calls = _counting_loadtxt(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loads = [load_dataset_csv(path) for _ in range(2)]
    assert len(calls) == 2
    for ds in loads:
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert _cache_entries(private_cache_home) == []  # no entry, no temporary file


def test_csv_loader_module_loads_only_with_a_csv(src_env):
    # without bytecode files every CLI run compiles what it imports: a run
    # that reads no CSV compiles neither the loader nor its cache, and does
    # not load hashlib for it
    code = "import sys, dpclip.harness.cli; print('dpclip._dataset_csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["False"], proc.stderr


@pytest.mark.parametrize(
    "text",
    ["1.0,2.0,0\n1.0,1\n", "1.0,2.0,0\n3.0,abc,1\n", "1.0,2.0,0\n3.0,4.0,1 # note\n"],
    ids=["ragged", "non-numeric", "hash-not-a-comment"],
)
def test_csv_cache_parse_error_is_raised_every_time_and_never_cached(
    tmp_path, private_cache_home, text
):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    messages = set()
    for append_bias in (False, True, False):
        with pytest.raises(ValueError) as info:
            load_dataset_csv(path, append_bias=append_bias)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert _cache_entries(private_cache_home) == []


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5])
def test_logistic_loss_uniform_at_zero(m):
    x = np.array([0.7, -1.3, 2.0])
    assert logistic_loss(np.zeros(m * 3), x, m - 1) == pytest.approx(math.log(m), rel=1e-12)


def test_logistic_loss_confident_prediction():
    # logits (+a, -a) for class 0
    a = 20.0
    w = np.array([a, 0.0, -a, 0.0])
    x = np.array([1.0, 0.0])
    assert logistic_loss(w, x, 0) < 1e-12


def test_logistic_shape_errors():
    with pytest.raises(ValueError):
        logistic_loss(np.zeros(5), np.zeros(2), 0)
    with pytest.raises(ValueError):
        logistic_grad(np.zeros(4), np.zeros(2), 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Dataset(np.ones((0, 2)), np.zeros(0, dtype=int)),
         "dataset must contain at least one sample"),
        (lambda: logistic_loss(np.zeros(2), np.ones(2), 0), "at least two classes required"),
        (lambda: logistic_problem(Dataset(np.ones((2, 2)), [0, 0])),
         "at least two classes required"),
        (lambda: logistic_problem(Dataset(np.ones((2, 2)), [0, 2]), 2),
         "labels exceed the declared number of classes"),
        (lambda: heavy_tailed_logistic_dataset(10, 3, 2, 1.0, np.random.default_rng(0)),
         "tail_k must exceed 1"),
    ],
    ids=["dataset-no-rows", "loss-one-class", "problem-one-class", "problem-label-over-m",
         "heavy-tail-k-1"],
)
def test_bad_data_or_class_count_is_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_logistic_grad_hand_case():
    got = logistic_grad(np.zeros(4), np.array([1.0, 0.0]), 0)
    assert np.allclose(got, [-0.5, 0.0, 0.5, 0.0], atol=1e-15)
    assert np.array_equal(logistic_grad(np.ones(4), np.zeros(2), 1), np.zeros(4))


def test_grad_norm_exact_cases():
    assert logistic_grad_norm_exact(np.array([0.5, 0.5]), 0, 1.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )
    assert logistic_grad_norm_exact(np.array([0.0, 1.0]), 1, 3.0) == 0.0
    # all mass on one wrong class saturates the sqrt(2)||x|| bound
    assert logistic_grad_norm_exact(np.array([0.0, 1.0]), 0, 2.0) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        logistic_grad_norm_exact(np.array([0.5, 0.6]), 0, 1.0)


def test_grad_norm_matches_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        w = rng.normal(0, 2, size=m * d)
        x = rng.normal(0, 2, size=d)
        y = int(rng.integers(m))
        logits = w.reshape(m, d) @ x
        z = np.exp(logits - logits.max())
        p = z / z.sum()
        x_norm = float(np.linalg.norm(x))
        expected = logistic_grad_norm_exact(p, y, x_norm)
        got = float(np.linalg.norm(logistic_grad(w, x, y)))
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert got <= math.sqrt(2.0) * x_norm + 1e-12


def test_logistic_problem_batch_consistency():
    # each family's batch functions against independent per-sample references;
    # the last case builds a Problem from scalar functions only (lifted path)
    rng = np.random.default_rng(23)
    ds = planted_logistic_dataset(20, 3, 3, rng, 0.5, 2.0).with_bias()
    xs = rng.normal(size=(12, 4))
    anchors = rng.normal(size=(12, 4))
    anchors[[3, 7]] = 0.0  # kinks at w = 0, where the subgradient is 0

    def median_loss(w, i):
        return float(np.linalg.norm(w - anchors[i]))

    def median_grad(w, i):
        delta = w - anchors[i]
        norm = np.linalg.norm(delta)
        return delta / norm if norm > 0 else np.zeros_like(delta)

    cases = [
        (
            logistic_problem(ds, 3),
            lambda w, i: logistic_loss(w, ds.features[i], int(ds.labels[i])),
            lambda w, i: logistic_grad(w, ds.features[i], int(ds.labels[i])),
        ),
        (
            hard_instance_problem(xs),
            lambda w, i: lower_bound_loss(w, xs[i])[0],
            lambda w, i: lower_bound_loss(w, xs[i])[1],
        ),
        (geometric_median_problem(anchors), median_loss, median_grad),
        (
            Problem(n=12, dim=4, loss=median_loss, grad=median_grad, lipschitz=np.ones(12)),
            median_loss,
            median_grad,
        ),
    ]
    idx = np.array([0, 3, 5, 7, 11])
    for prob, ref_loss, ref_grad in cases:
        for scale in (0.0, 1.0, 3.0):
            w = scale * rng.normal(size=prob.dim)
            batch_l = prob.losses_at(w, idx)
            batch_g = prob.grads_at(w, idx)
            for row, i in enumerate(idx):
                assert batch_l[row] == pytest.approx(ref_loss(w, i), rel=1e-12, abs=1e-12)
                assert np.allclose(batch_g[row], ref_grad(w, i), rtol=1e-12, atol=1e-14)
        assert prob.grads_at(np.zeros(prob.dim), []).shape == (0, prob.dim)
    assert np.allclose(
        cases[0][0].lipschitz, math.sqrt(2.0) * np.linalg.norm(ds.features, axis=1)
    )


@pytest.mark.parametrize(
    "given, missing",
    [
        ((), "loss and grad"),
        (("loss",), "grad"),
        (("grad",), "loss"),
        (("batch_loss",), "batch_grad"),
        (("batch_grad",), "batch_loss"),
        # a half batch pair is not completed from the scalar pair
        (("batch_loss", "loss", "grad"), "batch_grad"),
    ],
)
def test_problem_without_a_whole_function_pair_fails_at_construction(given, missing):
    def f(*args):
        raise AssertionError("no function is called at construction")

    fields = {name: f for name in given}
    with pytest.raises(ValueError) as err:
        Problem(n=3, dim=2, lipschitz=np.ones(3), **fields)
    assert str(err.value) == (
        f"a Problem needs batch_loss and batch_grad, or loss and grad; {missing} missing"
    )
    # either whole pair builds
    Problem(n=3, dim=2, lipschitz=np.ones(3), batch_loss=f, batch_grad=f)
    Problem(n=3, dim=2, lipschitz=np.ones(3), loss=f, grad=f)


@pytest.mark.parametrize("order", ["C", "F"])
def test_logistic_row_norms_are_bitwise_linalg_norm_across_blocks(order):
    # the row norms are taken block by block; n spans several blocks
    n = 2 * losses._ROW_BLOCK + 5
    rng = np.random.default_rng(37)
    features = rng.normal(size=(n, 21)) * rng.pareto(2.0, size=(n, 1))
    ds = Dataset(np.asarray(features, order=order), rng.integers(0, 3, n))
    expected = math.sqrt(2.0) * np.linalg.norm(ds.features, axis=1)
    assert np.array_equal(logistic_problem(ds, 3).lipschitz, expected)

    # a row whose squares overflow but whose constant is finite is rescaled
    features[n - 2] *= 1e200
    ds = Dataset(np.asarray(features, order=order), ds.labels)
    lipschitz = logistic_problem(ds, 3).lipschitz
    assert np.isfinite(lipschitz[n - 2]) and lipschitz[n - 2] > 1e200
    assert np.array_equal(lipschitz, math.sqrt(2.0) * row_norms(ds.features))

    # an overflowing row in a later block is named as before, without a warning
    features[n - 2] = 1e308
    ds = Dataset(np.asarray(features, order=order), ds.labels)
    with pytest.raises(ValueError) as err:
        logistic_problem(ds, 3)
    assert str(err.value) == (
        f"the Lipschitz constant of row {n - 2} overflows;"
        " per-sample Lipschitz constants must be finite"
    )


def test_class_sum_is_numpy_row_sum_bitwise():
    rng = np.random.default_rng(43)
    for m in [*range(2, 26), 127, 128, 129, 136, 300]:
        e = np.exp(5.0 * rng.normal(size=(50, m)))
        assert np.array_equal(losses._class_sum(np.ascontiguousarray(e.T)), e.sum(axis=1))


def _row_major_loss(X, y, m, w, idx):
    """The logistic losses as computed on (B, m) row-major logits before the
    loss moved to the class-major planes of the DP-SGD step."""
    logits = X[idx] @ w.reshape(m, -1).T
    z = logits - logits.max(axis=1, keepdims=True)
    return np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(idx)), y[idx]]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [2, 3, 5, 9])  # 9 takes _class_sum's numpy branch
def test_logistic_batch_loss_is_the_row_major_loss_bitwise(order, m):
    rng = np.random.default_rng(m)
    n = 700
    for d in (1, 21, 41):
        features = rng.normal(size=(n, d)) * rng.pareto(2.0, size=(n, 1))
        ds = Dataset(np.asarray(features, order=order), rng.integers(0, m, n))
        prob = logistic_problem(ds, m)
        for scale in (0.0, 0.3, 30.0):
            w = scale * rng.normal(size=prob.dim)
            # 2000 draws from 700 rows repeat indices
            for idx in (np.arange(0), np.array([n - 1]), rng.integers(0, n, 100),
                        rng.integers(0, n, 2000)):
                got = prob.batch_loss(w, idx)
                want = _row_major_loss(ds.features, ds.labels, m, w, idx)
                assert got.shape == want.shape == (len(idx),)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _same_bits(a, b):
    # array_equal takes -0.0 == 0.0; the bytes tell the signs apart
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _logistic_rows(X, y, m, w, idx):
    """The single-iterate logistic gradient rows as computed before iterates
    were stacked: the reference the stacked rows must equal bitwise."""
    Xb = X[idx]
    logits = Xb @ w.reshape(m, -1).T
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    p[np.arange(len(idx)), y[idx]] -= 1.0
    return np.einsum("bm,bd->bmd", p, Xb).reshape(len(idx), -1)


def test_stacked_grads_are_each_iterates_rows_bitwise():
    rng = np.random.default_rng(41)
    idx = np.array([0, 3, 5, 7, 11, 3])
    scales = np.array([[0.0], [0.3], [3.0], [30.0]])
    cases = []
    # 9 and 130 classes take _class_sum's numpy branch, 130 past numpy's
    # 128-term pairwise block
    for m in (2, 3, 4, 9, 130):
        features = rng.normal(size=(12, 5)) * rng.pareto(2.0, size=(12, 1))
        ds = Dataset(np.asfortranarray(features), rng.integers(0, m, 12))
        for data in (ds, ds.with_bias()):
            prob = logistic_problem(data, m)
            W = scales * rng.normal(size=(4, prob.dim))
            for w in W:
                rows = _logistic_rows(data.features, data.labels, m, w, idx)
                assert _same_bits(prob.grads_at(w, idx), rows)
            cases.append((prob, W))

    anchors = rng.normal(size=(12, 3))
    median = geometric_median_problem(anchors)
    # the second iterate sits on anchor 5, a kink whose subgradient is 0
    cases.append((median, np.stack([rng.normal(size=3), anchors[5], anchors[3] + 1.0])))

    xs = rng.normal(size=(12, 3))
    xs[[3, 7]] = 0.0  # their rows are -0.0 wherever ||w|| <= 1
    hard = hard_instance_problem(xs)
    W = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]])  # below, at, above 1
    cases.append((hard, W))
    G = hard.grads_at(W, idx).reshape(3, len(idx), 3)
    assert np.all(G[:2, [1, 3]] == 0.0) and np.all(np.signbit(G[:2, [1, 3]]))

    def median_loss(w, i):
        return float(np.linalg.norm(w - anchors[i]))

    def median_grad(w, i):
        delta = w - anchors[i]
        norm = np.linalg.norm(delta)
        return delta / norm if norm > 0 else np.zeros_like(delta)

    lifted = Problem(n=12, dim=3, loss=median_loss, grad=median_grad, lipschitz=np.ones(12))
    cases.append((lifted, np.stack([rng.normal(size=3), anchors[5]])))

    for prob, W in cases:
        stacked = prob.grads_at(W, idx)
        assert stacked.shape == (len(W) * len(idx), prob.dim)
        assert _same_bits(stacked, np.concatenate([prob.grads_at(w, idx) for w in W]))
        assert prob.grads_at(W, []).shape == (0, prob.dim)


def _rows_added_in_order(P, Xb):
    """The (K, m, d) sums of the rows P[:, k, b] x_b, added in batch order:
    numpy sums the outer axis of a C-contiguous block row after row, so each
    block of rows is summed behind the total of the blocks before it."""
    m, K, B = P.shape
    d = Xb.shape[1]
    step = max(1, 2**17 // (K * m * d))
    block = np.empty((1 + min(step, B), K, m, d))
    for start in range(0, B, step):
        rows = Xb[start : start + step]
        np.multiply(P.transpose(2, 1, 0)[start : start + step, :, :, None], rows[:, None, None],
                    out=block[1 : 1 + len(rows)])
        if start:
            block[0] = total
        total = block[(0 if start else 1) : 1 + len(rows)].sum(axis=0)
    return total


def test_summed_in_order_adds_each_iterates_rows_in_batch_order():
    # the rule the logistic in-order sum rests on: from d = 2 on, numpy's
    # iterator keeps einsum("mkb,bd->kmd")'s d axis innermost, so each output
    # element adds its rows in batch order, past the iterator's 8192-element
    # buffer too, and with P class-major or iterate-major (as P[:, mask]
    # leaves it). A zero feature column makes -0.0 products, whose sign the
    # bytes keep. K = 10 stops at B = 100 to keep the test fast
    rng = np.random.default_rng(40)
    pool = rng.normal(size=64 * 8193 * 2)
    two_operand_misses = 0
    for d in (1, 2, 3, 21, 63):
        for m in (2, 3, 9):
            for B, Ks in ((1, (1, 2, 10)), (2, (1, 2, 10)), (7, (1, 2, 10)), (100, (1, 2, 10)),
                          (8193, (1, 2))):
                for K in Ks:
                    x_at, p_at = rng.integers(0, 64 * 8193, size=2)
                    Xb = pool[x_at : x_at + B * d].reshape(B, d).copy()
                    if d > 1:
                        Xb[:, 1] = 0.0
                    wide = pool[p_at : p_at + m * 2 * K * B].reshape(m, 2 * K, B)
                    want = _rows_added_in_order(wide[:, :K], Xb)
                    for P in (np.ascontiguousarray(wide[:, :K]), wide[:, np.arange(2 * K) < K]):
                        got = losses._summed_in_order(P, Xb)
                        assert _same_bits(got, want), (
                            f"_summed_in_order no longer adds rows in batch order at d={d}, "
                            f"m={m}, K={K}, B={B}: from d = 2 on it rests on numpy's iterator "
                            "keeping einsum('mkb,bd->kmd')'s d axis innermost, at d = 1 on a "
                            "third operand of unit scales")
                    if d == 1:
                        two_operand = np.einsum("mkb,bd->kmd", P, Xb)
                        two_operand_misses += not _same_bits(two_operand, want)
    # at d = 1 the two-operand form sums the batch in SIMD lanes, which is why
    # _summed_in_order keeps the three-operand form there
    assert two_operand_misses >= 1


# ---------------------------------------------------------------------------
# Geometric median
# ---------------------------------------------------------------------------


def test_geometric_median_interpolating_case():
    a = np.array([1.0, -2.0])
    prob = geometric_median_problem(np.stack([a, a, a]))
    assert prob.objective(a) == 0.0
    assert np.array_equal(prob.grads_at(a), np.zeros((3, 2)))
    assert np.array_equal(prob.lipschitz, np.ones(3))
    assert np.array_equal(prob.per_sample_min, np.zeros(3))


def test_geometric_median_1d_flat_minimum():
    prob = geometric_median_problem(np.array([[-1.0], [1.0]]))
    grid = np.linspace(-3.0, 3.0, 1201)
    values = np.array([prob.objective(np.array([w])) for w in grid])
    assert values.min() == pytest.approx(1.0, abs=1e-12)
    inside = (grid >= -1.0) & (grid <= 1.0)
    assert np.allclose(values[inside], 1.0, atol=1e-12)
    assert np.all(values[~inside] > 1.0)


def test_sharpness_radius_formula():
    anchors = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    w_star = np.array([0.5, 0.5])
    centroid = anchors.mean(axis=0)
    expected = max(
        2 * np.linalg.norm(centroid - w_star),
        4 * np.mean(np.linalg.norm(anchors - centroid, axis=1)),
    )
    assert sharpness_radius(anchors, w_star) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Hard instance
# ---------------------------------------------------------------------------


def test_lower_bound_loss_cases():
    w = np.array([0.3, -0.4])
    x = np.array([2.0, 1.0])
    value, sub = lower_bound_loss(w, x)
    assert value == pytest.approx(-float(w @ x), rel=1e-12)
    assert np.array_equal(sub, -x)
    value, _ = lower_bound_loss(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    assert value == pytest.approx(0.0, abs=1e-15)
    value, sub = lower_bound_loss(np.array([5.0, 5.0]), np.zeros(2))
    assert value == 0.0
    assert np.array_equal(sub, np.zeros(2))


def test_lower_bound_subgradient_finite_differences():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 30:
        w = rng.normal(0, 2, size=3)
        if abs(np.linalg.norm(w) - 1.0) < 1e-2:
            continue  # kink at the unit sphere
        x = rng.normal(0, 1, size=3)
        _, sub = lower_bound_loss(w, x)
        fd = central_difference(lambda u: lower_bound_loss(u, x)[0], w)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(sub - fd) / denom <= 1e-5
        checked += 1


def test_qv_spec_validation():
    with pytest.raises(ValueError):
        QvSpec(np.array([1.0, 1.0]), 0.2, 2.0)  # too many ones
    with pytest.raises(ValueError):
        QvSpec(np.array([1.0, 0.5]), 0.2, 2.0)  # not binary
    with pytest.raises(ValueError):
        QvSpec(np.array([1.0, 0.0]), 0.5, 2.0)  # p must stay below 1/2
    with pytest.raises(ValueError):
        QvSpec(np.array([1.0, 0.0]), 0.2, 1.0)  # k must exceed 1


def test_qv_heavy_atom_and_two_atom_moment_identity():
    spec = QvSpec(np.array([1.0, 0.0]), 0.25, 2.0)
    assert np.allclose(spec.heavy_atom, [2.0, 0.0], rtol=1e-12)
    # enumeration: (1-p)*0 + p * (p^{-1/k} ||v||)^k = ||v||^k
    v_norm = float(np.linalg.norm(spec.v))
    atom_norm = float(np.linalg.norm(spec.heavy_atom))
    assert spec.p * atom_norm**spec.k == pytest.approx(v_norm**spec.k, rel=1e-12)


def test_sample_qv_support_and_mean():
    spec = QvSpec(np.array([0.0, 1.0, 1.0, 0.0]), 0.3, 1.5)
    rng = np.random.default_rng(26)
    draws = sample_Qv_many(spec, 60_000, rng)
    zero_rows = ~draws.any(axis=1)
    nonzero = draws[~zero_rows]
    assert np.allclose(nonzero, spec.heavy_atom)
    expected = spec.p ** (1.0 - 1.0 / spec.k) * spec.v
    v_norm2 = float(spec.v @ spec.v)
    total_var = spec.p ** (1.0 - 2.0 / spec.k) * (1.0 - spec.p) * v_norm2
    band = 4.0 * math.sqrt(total_var / draws.shape[0])
    assert np.linalg.norm(draws.mean(axis=0) - expected) <= band


def test_hard_instance_problem_consistency():
    rng = np.random.default_rng(27)
    xs = np.vstack([np.zeros((3, 4)), rng.normal(size=(5, 4))])
    prob = hard_instance_problem(xs)
    assert np.allclose(prob.lipschitz, 3.0 * np.linalg.norm(xs, axis=1))
    assert np.allclose(prob.per_sample_min, -np.linalg.norm(xs, axis=1))
    for w in (rng.normal(size=4), 3.0 * rng.normal(size=4)):
        idx = np.arange(prob.n)
        batch_l = prob.losses_at(w, idx)
        batch_g = prob.grads_at(w, idx)
        for i in idx:
            value, sub = lower_bound_loss(w, xs[i])
            assert batch_l[i] == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert np.allclose(batch_g[i], sub, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d", [2, 4])
def test_hard_instance_minimizer_location(d):
    from scipy.optimize import minimize

    rng = np.random.default_rng(28)
    v = np.zeros(d)
    v[rng.permutation(d)[: d // 2]] = 1.0
    spec = QvSpec(v, 0.2, 2.0)
    xs = sample_Qv_many(spec, 400, rng)
    assert xs.any(), "need a nonzero empirical mean"
    prob = hard_instance_problem(xs)
    w_star = v / np.linalg.norm(v)
    best_w, best_f = None, math.inf
    for _ in range(8):
        res = minimize(
            prob.objective,
            rng.normal(0, 0.8, size=d),
            method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-12, maxiter=20_000, maxfev=40_000),
        )
        if res.fun < best_f:
            best_w, best_f = res.x, res.fun
    assert np.linalg.norm(best_w - w_star) <= 1e-6
    # linear growth outside the unit ball
    x_bar = xs.mean(axis=0)
    f_star = prob.objective(w_star)
    for _ in range(100):
        w = rng.normal(size=d)
        w *= (1.0 + 4.0 * rng.random()) / np.linalg.norm(w)
        gap = prob.objective(w) - f_star
        assert gap >= np.linalg.norm(x_bar) * (np.linalg.norm(w) - 1.0) - 1e-9


def test_hard_instance_gradient_moment_bound():
    rng = np.random.default_rng(29)
    v = np.zeros(4)
    v[:2] = 1.0
    spec = QvSpec(v, 0.15, 2.5)
    bound = (3.0 * float(np.linalg.norm(v))) ** spec.k
    for _ in range(100):
        w = rng.normal(0, 2, size=4)
        _, sub = lower_bound_loss(w, spec.heavy_atom)
        moment = spec.p * float(np.linalg.norm(sub)) ** spec.k
        assert moment <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def test_heavy_tailed_moment_level():
    # E[G^k] = 2^{k/2} E[(r^2+1)^{k/2}] with r Pareto(1, k+1); at k=2 this is
    # 2*(3+1) = 8. The k-th power of the radius has a heavy tail, so a wide
    # band is appropriate even at n = 1e5.
    ds = heavy_tailed_logistic_dataset(100_000, 5, 3, 2.0, np.random.default_rng(0))
    g_sq = 2.0 * (np.sum(ds.features**2, axis=1) + 1.0)
    assert 0.5 * 8.0 <= g_sq.mean() <= 1.5 * 8.0
    assert np.linalg.norm(ds.features, axis=1).max() > 3.0  # unbounded support


def test_heavy_tailed_inf_sentinel():
    ds = heavy_tailed_logistic_dataset(500, 4, 2, math.inf, np.random.default_rng(1))
    assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)


def test_synthetic_generators_reject_bad_arguments():
    rng = np.random.default_rng(4)
    sizes = dict(n=10, d=3, m=2)
    for name, bad in (("n", 0), ("d", 0), ("m", 1), ("m", 0)):
        args = {**sizes, name: bad}
        with pytest.raises(ValueError, match=rf"^{name} \(\w+\) must be >= "):
            planted_logistic_dataset(args["n"], args["d"], args["m"], rng)
        with pytest.raises(ValueError, match=rf"^{name} \(\w+\) must be >= "):
            heavy_tailed_logistic_dataset(args["n"], args["d"], args["m"], 2.0, rng)
    for low, high in ((0.0, 1.0), (2.0, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="need 0 < norm_low <= norm_high < inf"):
            planted_logistic_dataset(10, 3, 2, rng, low, high)


def test_planted_datasets_are_separable():
    rng = np.random.default_rng(2)
    ds = planted_logistic_dataset(200, 5, 3, rng, 0.5, 4.0).with_bias()
    prob = logistic_problem(ds, 3)
    _, f_best = reference_minimum(prob, np.zeros(prob.dim), [1.0, 3.0, 10.0], 3000)
    assert f_best < 0.05
    norms = np.linalg.norm(ds.features[:, :-1], axis=1)
    assert norms.min() >= 0.5 - 1e-9 and norms.max() <= 4.0 + 1e-9


def test_planted_norm_spread_controls_lipschitz_ratio():
    rng = np.random.default_rng(3)
    ds = planted_logistic_dataset(500, 10, 3, rng, 0.4, 8.0).with_bias()
    prob = logistic_problem(ds, 3)
    ratio = prob.lipschitz.max() / prob.lipschitz.min()
    assert ratio >= 5.0


def test_problem_bundle_invariants_across_families():
    # gradient norms stay below the per-sample constants and per-sample
    # losses stay above the declared minima, at random test points
    rng = np.random.default_rng(40)
    ds = planted_logistic_dataset(30, 4, 3, rng, 0.5, 3.0).with_bias()
    problems = [
        logistic_problem(ds, 3),
        geometric_median_problem(rng.normal(size=(8, 3))),
        hard_instance_problem(rng.normal(size=(10, 3)) * (rng.random((10, 1)) > 0.3)),
    ]
    for prob in problems:
        for _ in range(20):
            w = rng.normal(0, 2, size=prob.dim)
            norms = np.linalg.norm(prob.grads_at(w), axis=1)
            assert np.all(norms <= prob.lipschitz + 1e-9)
            assert np.all(prob.losses_at(w) >= prob.per_sample_min - 1e-12)
