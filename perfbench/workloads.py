"""Workload inputs, the tasks every workload runs, and output checks.

Every workload runs the same tasks, so every end-to-end metric is measured
on every workload:

* recipe: the README command-line recipe through ``faemb.cli.main`` on a
  toy-shape corpus (n=8, d=16, D=1,088), real-valued and binary branches;
* train: where the recipe is not the focus, ``train-coding`` once on each of
  many small training subsets, spread over the run;
* encode: paper-shape descriptors (n=16, d=45, D=16,560) streamed image by
  image through ``code_batch`` + ``embed_faemb_batch`` with both coders;
* query: single queries through ``search`` on a real and a binary index;
* eval: ``evaluate_map`` over query blocks on both indexes.

A workload differs in which tasks are large: its focus tasks run for
``--seconds``, the others run small and for a fixed time.  The tasks, and
the repeats of set-up, run interleaved in short turns, so every metric's
samples spread over the whole run and a slow spell of a shared machine
touches all of them alike.

All inputs come from ``numpy.random.default_rng`` seeded by the workload
seed, never from the package's own generators, so a program change cannot
alter them.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from faemb import cli
from faemb.aggregate import ImageSignature
from faemb.binary import encode_itq, fit_itq
from faemb.coding import CodingModel, kmeans_init
from faemb.core import DescriptorSet
from faemb.embed import embed_faemb_batch
from faemb.pipeline import code_batch
from faemb.retrieval import (
    GroundTruth,
    build_binary_index,
    build_index,
    evaluate_map,
    search,
)
from faemb.storage import (
    load_codes,
    load_index,
    load_signatures,
    save_descriptors,
    save_ground_truth,
)

TOY_N, TOY_D = 8, 16
PAPER_N, PAPER_D = 16, 45
MU = 1e-2
WORKERS = 1  # CLI --threads; spans assume one thread
SETUP_REPEATS = 3
TOP_K = 10
CHECK_EVERY = 4  # reference-check every 4th query
MIN_QUERIES = 200  # per index, so ten samples lie beyond p95
ENCODE_IMAGES = 64  # distinct paper-shape images the encode task cycles over

# Seconds a task gets when it is not the workload's focus.
# The train task runs one training per subset; its entry only spreads them.
SIDE_SECONDS = {"setup": 1.0, "recipe": 3.0, "train": 5.0, "encode": 3.0, "query": 5.0, "eval": 3.0}


@dataclass(frozen=True)
class Profile:
    focus: tuple[str, ...]  # tasks that run for --seconds
    # recipe corpus: clusters x per_cluster images of per_image descriptors
    clusters: int
    per_cluster: int
    per_image: int
    sigma: float
    train_count: int
    outer_iters: int
    bits: int
    # training subsets; train cost depends on the data, so train_s covers
    # several
    train_subsets: int
    # encode task: descriptors per paper-shape image
    encode_per_image: int
    # expected seconds of one focus unit on a 2-core box; weighting the focus
    # by it spreads the side tasks over a focus unit longer than --seconds
    pace: float = 0.0
    # query and eval tasks use a synthetic signature index when sig_clusters
    # is set, else the index the recipe built
    sig_clusters: int = 0
    sig_per_cluster: int = 5
    sig_dim: int = 952
    sig_noise: float = 0.0
    sig_bits: int = 256
    sig_train: int = 2000  # signatures fit_itq learns from
    eval_block: int = 0  # queries per evaluate_map call; 0 = all indexed images
    eval_queries: int = 0  # distinct queries evaluated; 0 = all indexed images
    # floors for map_real / map_binary, recorded when the benchmark was defined
    map_floor: tuple[float, float] = (0.0, 0.0)


SIDE_RECIPE = dict(
    clusters=20, per_cluster=5, per_image=20, sigma=0.3, train_count=300,
    outer_iters=1, bits=16, train_subsets=10,
)

PROFILES = {
    "cli-toy": Profile(
        focus=("recipe",), clusters=20, per_cluster=5, per_image=200, sigma=0.9,
        train_count=1000, outer_iters=3, bits=64, train_subsets=3, encode_per_image=100,
        pace=25.0,
        map_floor=(0.55, 0.3),
    ),
    "encode-paper": Profile(
        focus=("encode",), encode_per_image=200, sig_clusters=20, sig_noise=1.0,
        sig_bits=64, sig_train=100, map_floor=(0.9, 0.9), **SIDE_RECIPE,
    ),
    "query-5k": Profile(
        focus=("query", "eval"), encode_per_image=100, sig_clusters=1000,
        sig_noise=1.8, eval_block=25, eval_queries=100, map_floor=(0.95, 0.7),
        **SIDE_RECIPE,
    ),
}


def tiny(p: Profile) -> Profile:
    """The same workload at sizes small enough for the self-check."""
    return Profile(
        focus=p.focus, clusters=4, per_cluster=3, per_image=20, sigma=p.sigma,
        train_count=120, outer_iters=1, bits=8, train_subsets=2, encode_per_image=20,
        sig_clusters=40 if p.sig_clusters else 0, sig_per_cluster=p.sig_per_cluster,
        sig_dim=64, sig_noise=p.sig_noise, sig_bits=32, sig_train=200,
        eval_block=10 if p.sig_clusters else 0, eval_queries=20 if p.sig_clusters else 0,
    )


class Tally:
    """Operations attempted and failed; an operation is a subcommand, an
    image, a query or an evaluation, and fails when it raises, exits non-zero
    or fails an output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# ---------------------------------------------------------------------------
# scheduling


@dataclass
class Task:
    """A generator that yields after each step: the number of units done
    when a unit completes, else None."""

    name: str
    steps: Iterator[int | None]
    weight: float  # seconds the task should get
    stop: Callable[[int, float], bool]  # (units done, seconds spent) -> done
    ready: Callable[[], bool] = lambda: True
    spent: float = 0.0
    units: int = 0
    done: bool = False


def interleave(tasks: list[Task], quantum: float = 0.05) -> None:
    """Run tasks in turns of about ``quantum`` seconds, each turn going to the
    task furthest behind its weight; a turn keeps short steps warm in cache."""
    while True:
        live = [t for t in tasks if not t.done and t.ready()]
        if not live:
            if any(not t.done for t in tasks):
                raise RuntimeError("tasks wait on work that never completes")
            return
        t = min(live, key=lambda t: t.spent / t.weight)
        turn = time.perf_counter()
        while not t.done and time.perf_counter() - turn < quantum:
            t0 = time.perf_counter()
            units = next(t.steps)
            t.spent += time.perf_counter() - t0
            if units is not None:
                t.units = units
                t.done = t.stop(units, t.spent)


@dataclass
class Results:
    train_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    recipe: dict = field(default_factory=dict)  # artifacts of the last pass
    rates: dict = field(default_factory=lambda: {"ffaemb": [], "faemb": []})
    latency_ms: dict = field(default_factory=lambda: {"real": [], "binary": []})
    eval_rates: list[float] = field(default_factory=list)
    ap_real: dict = field(default_factory=dict)
    ap_binary: dict = field(default_factory=dict)
    q_inputs: tuple | None = None


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    work: Path
    gt: GroundTruth
    fast: CodingModel
    slow: CodingModel
    images: list[np.ndarray] = field(repr=False)  # paper-shape (d, m) blocks
    sig_index: tuple | None = None  # (index, bindex, signatures, codes, gt)


def _planted(clusters: int, per_cluster: int, prefix: str):
    groups = [[f"{prefix}{c:04d}_{i}" for i in range(per_cluster)] for c in range(clusters)]
    entries = {
        qid: (frozenset(o for o in group if o != qid), frozenset())
        for group in groups
        for qid in group
    }
    return groups, GroundTruth(entries=entries)


def toy_corpus(p: Profile, rng) -> tuple[list[DescriptorSet], GroundTruth]:
    """Planted clusters: each image is its cluster's template plus noise."""
    groups, gt = _planted(p.clusters, p.per_cluster, "c")
    sets = []
    for group in groups:
        template = rng.standard_normal((p.per_image, TOY_D))
        for qid in group:
            noise = rng.standard_normal((p.per_image, TOY_D))
            sets.append(DescriptorSet(image_id=qid, descriptors=template + p.sigma * noise))
    return sets, gt


def unit_signatures(p: Profile, rng) -> tuple[list[ImageSignature], GroundTruth]:
    """Unit vectors around random cluster centres; noise sets retrieval difficulty."""
    groups, gt = _planted(p.sig_clusters, p.sig_per_cluster, "s")
    sigs = []
    for group in groups:
        centre = rng.standard_normal(p.sig_dim)
        for qid in group:
            v = centre + p.sig_noise * rng.standard_normal(p.sig_dim)
            sigs.append(ImageSignature(values=v / np.linalg.norm(v), image_id=qid))
    return sigs, gt


def setup(p: Profile, seed: int, work: Path, tr) -> Inputs:
    """Everything before the timed tasks; deterministic in ``seed``."""
    work.mkdir(parents=True, exist_ok=True)
    sets, gt = toy_corpus(p, np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    stacked = np.concatenate([s.descriptors for s in sets])
    tr.call("storage.save_descriptors", save_descriptors, work / "corpus.faeb", sets)
    for k in range(p.train_subsets):
        train = stacked[rng.choice(len(stacked), p.train_count, replace=False)]
        tr.call(
            "storage.save_descriptors", save_descriptors, work / f"train{k}.faeb",
            [DescriptorSet(image_id="train", descriptors=train)],
        )
    save_ground_truth(work / "gt.txt", gt)
    (work / "bench.cfg").write_text(f"[coding]\nouter_iters = {p.outer_iters}\n")

    rng = np.random.default_rng([seed, 3])
    sample = rng.standard_normal((PAPER_D, 2000))
    anchors = tr.call("coding.kmeans_init", kmeans_init, sample, PAPER_N, seed=seed)
    images = [rng.standard_normal((PAPER_D, p.encode_per_image)) for _ in range(ENCODE_IMAGES)]
    inputs = Inputs(
        work=work,
        gt=gt,
        fast=CodingModel(anchors=anchors, mu=MU, variant="ffaemb"),
        slow=CodingModel(anchors=anchors, mu=MU, variant="faemb"),
        images=images,
    )
    if p.sig_clusters:
        sigs, sgt = unit_signatures(p, np.random.default_rng([seed, 4]))
        Psi = np.stack([s.values for s in sigs[: p.sig_train]])
        itq = tr.call("binary.fit_itq", fit_itq, Psi, bits=p.sig_bits, seed=seed).model
        codes = [tr.call("binary.encode_itq", encode_itq, s, itq) for s in sigs]
        index = tr.call("retrieval.build_index", build_index, sigs)
        bindex = tr.call("retrieval.build_binary_index", build_binary_index, codes)
        inputs.sig_index = (index, bindex, sigs, codes, sgt)
    return inputs


def _release_heap() -> None:
    """Return freed heap pages to the system (glibc only).

    A set-up repeat frees a second copy of the inputs, mostly small arrays
    that stay in the heap.  Without this, ``peak_rss_mb`` would depend on
    whether a large query happened to run before the heap was reused.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def setup_steps(p: Profile, seed: int, work: Path, tr, times: list[float]):
    """Repeat set-up into a scratch directory, one repeat per step."""
    n = 0
    while True:
        t0 = time.perf_counter()
        setup(p, seed, work, tr)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(work, ignore_errors=True)
        _release_heap()
        n += 1
        yield n


# ---------------------------------------------------------------------------
# recipe task


def _cli(tr, tally: Tally, argv: list[str]) -> tuple[float, str]:
    """Run one subcommand in-process; returns (wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    name = "cli." + argv[0].replace("-", "_")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tr.call(name, cli.main, argv)
        except Exception as exc:  # counted as a failed subcommand
            rc = -1
            err.write(repr(exc))
    wall = time.perf_counter() - t0
    tally.op(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
    return wall, out.getvalue()


def _common(p: Profile, inp: Inputs, seed: int) -> list[str]:
    return [
        "--config", str(inp.work / "bench.cfg"), "--n", str(TOY_N), "--mu", str(MU),
        "--variant", "ffaemb", "--seed", str(seed), "--threads", str(WORKERS),
        "--bits", str(p.bits),
    ]


def recipe_steps(p: Profile, inp: Inputs, seed: int, tr, tally: Tally, res: Results):
    """README recipe, one subcommand per step; repeats until stopped.

    As the focus, each pass also trains on every other subset and all its
    trainings count in ``train_s``; as a side task it trains once per pass,
    uncounted, and :func:`train_steps` samples ``train_s`` instead.
    """
    focus = "recipe" in p.focus
    f = {k: str(inp.work / v) for k, v in dict(
        corpus="corpus.faeb", gt="gt.txt",
        coding="coding.famb", embedded="embedded.famb", whitening="whitening.famb",
        sigs="signatures.famb", index="index.famb", itq="itq.famb",
        codes="codes.famb", bindex="bindex.famb",
    ).items()}
    common = _common(p, inp, seed)
    build = [
        ["embed", "--in", f["corpus"], "--coding", f["coding"], "--out", f["embedded"]],
        ["fit-agg", "--in", f["embedded"], "--out", f["whitening"]],
        ["aggregate", "--in", f["embedded"], "--whitening", f["whitening"], "--out", f["sigs"]],
        ["index", "--in", f["sigs"], "--out", f["index"]],
        ["fit-itq", "--in", f["sigs"], "--out", f["itq"]],
        ["encode", "--in", f["sigs"], "--itq", f["itq"], "--out", f["codes"]],
        ["index", "--in", f["codes"], "--out", f["bindex"]],
    ]
    qid = sorted(inp.gt.entries)[0]
    branches = (("real", f["index"], f["sigs"]), ("binary", f["bindex"], f["codes"]))
    passes = 0
    while True:
        # the build uses the first model, so the query and eval tasks can
        # start while the other training subsets run
        train = str(inp.work / "train0.faeb")
        train_s = _cli(tr, tally, ["train-coding", "--train", train, "--out", f["coding"], *common])[0]
        if focus:
            res.train_s.append(train_s)
        yield None
        build_s = 0.0
        for argv in build:
            build_s += _cli(tr, tally, [*argv, *common])[0]
            yield None
        searched, cli_map = {}, {}
        for kind, index, queries in branches:
            _, searched[kind] = _cli(tr, tally, [
                "search", "--index", index, "--queries", queries, "--query-id", qid,
                "--k", str(TOP_K), *common,
            ])
            _, out = _cli(tr, tally, ["eval", "--index", index, "--queries", queries, "--gt", f["gt"], *common])
            last = out.strip().splitlines()[-1] if out.strip() else ""
            cli_map[kind] = float(last.split()[1]) if last.startswith("mAP ") else math.nan
        res.build_s.append(build_s)
        res.recipe = dict(files=f, qid=qid, searched=searched, cli_map=cli_map)
        if not focus:
            passes += 1
            yield passes
            continue
        yield None
        for k in range(1, p.train_subsets):
            train = str(inp.work / f"train{k}.faeb")
            out = str(inp.work / f"coding{k}.famb")
            res.train_s.append(_cli(tr, tally, ["train-coding", "--train", train, "--out", out, *common])[0])
            yield None if k < p.train_subsets - 1 else passes + 1
        passes += 1


def train_steps(p: Profile, inp: Inputs, seed: int, tr, tally: Tally, res: Results):
    """``train-coding`` on each training subset in turn, one per step."""
    common = _common(p, inp, seed)
    out = str(inp.work / "coding-side.famb")
    n = 0
    while True:
        train = str(inp.work / f"train{n % p.train_subsets}.faeb")
        res.train_s.append(_cli(tr, tally, ["train-coding", "--train", train, "--out", out, *common])[0])
        n += 1
        yield n


def query_inputs(inp: Inputs, res: Results, tr, tally: Tally) -> tuple:
    """The index to query: the synthetic one, or the recipe's read back and checked."""
    if res.q_inputs is not None:
        return res.q_inputs
    if inp.sig_index is not None:
        res.q_inputs = inp.sig_index
        return res.q_inputs
    rec = res.recipe
    f = rec["files"]
    index = tr.call("storage.load_index", load_index, f["index"])
    bindex = tr.call("storage.load_index", load_index, f["bindex"])
    sigs = tr.call("storage.load_signatures", load_signatures, f["sigs"])
    codes = tr.call("storage.load_codes", load_codes, f["codes"])
    bad = [s.image_id for s in sigs if not (s.degenerate or abs(np.linalg.norm(s.values) - 1.0) <= 1e-9)]
    tally.op(not bad, f"signatures neither unit-norm nor degenerate: {bad[:5]}")
    for kind, idx, entries in (("real", index, sigs), ("binary", bindex, codes)):
        q = next(e for e in entries if e.image_id == rec["qid"])
        rows = [line.split("\t") for line in rec["searched"][kind].strip().splitlines()]
        got = [(r[2], float(r[3])) for r in rows if len(r) == 4]
        tally.op(
            _ranking_ok(got, q, idx, _positions(idx), atol=1e-6),
            f"CLI search ({kind}) differs from the reference ranking",
        )
    res.q_inputs = (index, bindex, sigs, codes, inp.gt)
    return res.q_inputs


# ---------------------------------------------------------------------------
# encode task


def encode_steps(inp: Inputs, tr, tally: Tally, res: Results):
    """Code and embed one paper-shape image with both coders per step."""
    i = 0
    while True:
        X = inp.images[i % len(inp.images)]
        m = X.shape[1]
        for model in (inp.fast, inp.slow):
            t0 = time.perf_counter()
            try:
                G = tr.call("pipeline.code_batch", code_batch, X, model)
                E = tr.call("embed.embed_faemb_batch", embed_faemb_batch, X, G, model)
            except Exception as exc:  # counted as a failed image
                tally.op(False, f"image {i} ({model.variant}) raised {exc!r}")
                continue
            res.rates[model.variant].append(m / (time.perf_counter() - t0))
            ok = (
                np.abs(G.sum(axis=0) - 1.0).max() <= 1e-8
                and E.shape == (m, model.n_anchors * PAPER_D * (PAPER_D + 1) // 2)
                and bool(np.isfinite(E).all())
            )
            tally.op(ok, f"image {i} ({model.variant}): coefficients or embedding invalid")
        i += 1
        yield i


# ---------------------------------------------------------------------------
# query and eval tasks


def _positions(index) -> dict[str, int]:
    return {rid: j for j, rid in enumerate(index.ids)}


def _reference_distances(q, index) -> np.ndarray:
    if index.mode == "real":
        return np.linalg.norm(index.vectors - q.values[None, :], axis=1)
    xor = np.bitwise_xor(index.vectors, q.packed[None, :])
    return np.unpackbits(xor, axis=1).sum(axis=1).astype(np.float64)


def _ranking_ok(got: list, q, index, pos: dict, atol: float = 1e-9) -> bool:
    """Top-k ids and distances against a plain numpy ranking with stable ties."""
    if len(got) != min(TOP_K, len(index)):
        return False
    ref = _reference_distances(q, index)
    order = np.argsort(ref, kind="stable")[: len(got)]
    at = np.array([pos[rid] for rid, _ in got])
    dist = np.array([d for _, d in got])
    if not np.allclose(dist, ref[at], rtol=0.0, atol=atol):
        return False
    # identical order, or a permutation among equal reference distances
    return np.array_equal(at, order) or np.allclose(ref[at], ref[order], rtol=0.0, atol=1e-12)


def query_steps(inputs: Callable[[], tuple], tr, tally: Tally, res: Results):
    """One query on the real and one on the binary index per step."""
    index, bindex, sigs, codes, _ = inputs()
    pos = {"real": _positions(index), "binary": _positions(bindex)}
    yield None
    i = 0
    while True:
        j = i % len(sigs)
        for kind, q, idx in (("real", sigs[j], index), ("binary", codes[j], bindex)):
            t0 = time.perf_counter()
            try:
                got = tr.call("retrieval.search", search, q, idx, TOP_K)
            except Exception as exc:  # counted as a failed query
                tally.op(False, f"search ({kind}) raised {exc!r}")
                continue
            res.latency_ms[kind].append(1e3 * (time.perf_counter() - t0))
            ok = i % CHECK_EVERY != 0 or _ranking_ok(got, q, idx, pos[kind])
            tally.op(ok, f"search ({kind}) for {q.image_id} differs from the reference")
        i += 1
        yield i


def eval_blocks(p: Profile, n_indexed: int) -> tuple[int, int]:
    """(queries per block, blocks that cover the evaluated queries once)."""
    total = p.eval_queries or n_indexed
    block = p.eval_block or total
    return block, -(-total // block)


def eval_steps(p: Profile, inputs: Callable[[], tuple], tr, tally: Tally, res: Results):
    """evaluate_map on one block of queries per step, real then binary."""
    index, bindex, sigs, codes, gt = inputs()
    block, n_blocks = eval_blocks(p, len(sigs))
    yield None
    b = 0
    while True:
        lo = (b % n_blocks) * block
        b += 1
        t0 = time.perf_counter()
        try:
            real = tr.call("retrieval.evaluate_map", evaluate_map, sigs[lo : lo + block], index, gt)
            elapsed = time.perf_counter() - t0
            binary = tr.call("retrieval.evaluate_map", evaluate_map, codes[lo : lo + block], bindex, gt)
        except Exception as exc:  # counted as a failed evaluation
            tally.op(False, f"evaluate_map raised {exc!r}")
            yield b
            continue
        tally.op(True, "evaluate_map")
        res.eval_rates.append(len(real.per_query) / elapsed)
        res.ap_real.update(real.per_query)
        res.ap_binary.update(binary.per_query)
        yield b


def summarize(p: Profile, res: Results, tally: Tally) -> dict:
    """End-to-end values from the samples, plus the closing output checks."""
    map_real = statistics.fmean(res.ap_real.values())
    map_binary = statistics.fmean(res.ap_binary.values())
    tally.op(map_real >= p.map_floor[0], f"map_real {map_real:.4f} below floor {p.map_floor[0]}")
    tally.op(map_binary >= p.map_floor[1], f"map_binary {map_binary:.4f} below floor {p.map_floor[1]}")
    if p.sig_clusters == 0:
        for kind, value in (("real", map_real), ("binary", map_binary)):
            printed = res.recipe["cli_map"][kind]
            tally.op(  # the CLI prints four decimals
                abs(printed - value) <= 5.01e-5,
                f"faemb eval printed mAP {printed} ({kind}), evaluate_map gives {value:.6f}",
            )
    lat = res.latency_ms
    # the side train task trains once on every subset: a mean weighs each alike
    train = statistics.median if "recipe" in p.focus else statistics.fmean
    return {
        "train_s": train(res.train_s),
        "index_build_s": statistics.median(res.build_s),
        "ffaemb_desc_per_s": statistics.median(res.rates["ffaemb"]),
        "faemb_desc_per_s": statistics.median(res.rates["faemb"]),
        "search_p50_ms": float(np.percentile(lat["real"], 50)),
        "search_p95_ms": float(np.percentile(lat["real"], 95)),
        "hamming_p50_ms": float(np.percentile(lat["binary"], 50)),
        "hamming_p95_ms": float(np.percentile(lat["binary"], 95)),
        "eval_queries_per_s": statistics.median(res.eval_rates),
        "map_real": map_real,
        "map_binary": map_binary,
    }
