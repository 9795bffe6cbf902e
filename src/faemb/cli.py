"""Command-line front end: batch pipeline stages wired through files.

Every subcommand reads and writes the package's container formats, logs
timestamped progress lines to stderr, and prints result tables to stdout.
On failure the process exits nonzero after emitting one machine-readable
JSON error line to stderr (``{"error": <type>, "message": <text>}``).

Configuration comes from an optional ``key = value`` file (see
``faemb config --dump-defaults``); command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .aggregate import apply_rn, fit_rotation_norm, fit_whitening
from .binary import encode_itq, fit_itq
from .coding import CodingModel, SolverParams, train_coding
from .config import (
    ConfigError,
    PipelineConfig,
    apply_overrides,
    dump_defaults,
    load_config,
)
from .core import stack_descriptors
from .embed import EmbeddingConfig, embed_faemb_batch, embedding_length
from .pipeline import (
    AggregationParams,
    code_batch,
    default_drop,
    embed_descriptor_set,  # not called here; perfbench's traced run wraps it by name
    parallel_map,
    signature_from_embedded,
)
from .retrieval import (
    build_binary_index,
    build_index,
    evaluate_map,
    search,
    synth_corpus,
)
from .storage import (
    StorageError,
    _codes_from_sections,
    _expect,
    _expect_scalar,
    _signatures_from_sections,
    load_codes,  # not called here; perfbench's traced run wraps it by name
    load_descriptors,
    load_ground_truth,
    load_index,
    load_model,
    load_signatures,
    read_container,
    save_codes,
    save_descriptors,
    save_ground_truth,
    save_index,
    save_model,
    save_signatures,
    write_container,
)

__all__ = ["main"]


def _log(msg: str) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"[{stamp}] {msg}", file=sys.stderr)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {
        name: getattr(args, name, None)
        for name in (
            "n",
            "mu",
            "variant",
            "alpha",
            "drop",
            "keep",
            "bits",
            "threads",
            "seed",
        )
    }
    if overrides["drop"] == -1:
        overrides["drop"] = None  # --drop -1 means "auto"
    elif overrides["drop"] is not None and overrides["drop"] < 0:
        raise ValueError(f"--drop must be >= 0, or -1 for auto; got {overrides['drop']}")
    return apply_overrides(cfg, **overrides)


def _model_path(cfg: PipelineConfig, override: str | None, default_name: str) -> Path:
    if override:
        return Path(override)
    return Path(cfg.model_dir) / default_name


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not str(path):
        raise ValueError(f"no {what} path given (flag or config)")
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


# ---------------------------------------------------------------------------
# subcommands


def _cmd_config(args: argparse.Namespace) -> int:
    if args.dump_defaults:
        sys.stdout.write(dump_defaults())
        return 0
    cfg = _resolve_config(args)
    for line in str(cfg)[len("PipelineConfig(") : -1].split(", "):
        print(line)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _log(
        f"generating corpus: {args.clusters} clusters x {args.per_cluster} images, "
        f"{args.descriptors} descriptors/image, d={args.dim}, sigma={args.sigma}"
    )
    sets, gt = synth_corpus(
        n_clusters=args.clusters,
        per_cluster=args.per_cluster,
        d=args.dim,
        sigma=args.sigma,
        seed=cfg.seed,
        descriptors_per_image=args.descriptors,
    )
    corpus = out_dir / "corpus.faeb"
    gt_path = out_dir / "ground_truth.txt"
    save_descriptors(corpus, sets)
    save_ground_truth(gt_path, gt)
    print(f"corpus: {corpus}")
    print(f"ground_truth: {gt_path}")
    return 0


def _cmd_train_coding(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train_file = _require(args.train or cfg.train_path or cfg.corpus_path, "training descriptor")
    sets = load_descriptors(train_file)
    X = stack_descriptors(sets).T
    _log(
        f"training {cfg.variant} coding: n={cfg.n}, mu={cfg.mu}, "
        f"{X.shape[1]} descriptors of dim {X.shape[0]}"
    )
    params = SolverParams(max_outer_iters=cfg.outer_iters)
    result = train_coding(X, cfg.n, cfg.mu, cfg.variant, params=params, seed=cfg.seed)
    out = _model_path(cfg, args.out, "coding.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, result.model)
    for t, q in enumerate(result.trace):
        print(f"iter {t:3d}  objective {q:.9f}")
    print(f"model: {out}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    model = load_model(_require(args.coding or str(_model_path(cfg, None, "coding.famb")), "coding model"))
    sets = load_descriptors(_require(args.input or cfg.corpus_path, "descriptor"))
    ecfg = EmbeddingConfig(s1=cfg.s1, s2=cfg.s2)
    _log(f"embedding {len(sets)} images ({model.variant}, threads={cfg.threads})")
    gammas = parallel_map(lambda s: code_batch(s.descriptors.T, model), sets, cfg.threads)
    out = _model_path(cfg, args.out, "embedded.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_container(
        out,
        {
            "model_type": "embedded",
            "ids": json.dumps([s.image_id for s in sets]),
            "counts": np.array([s.count for s in sets], dtype=np.int64),
            "values": np.concatenate([s.descriptors for s in sets], dtype=np.float32),
            "gamma": np.concatenate(gammas, axis=1),
            "anchors": model.anchors,
            "mu": np.float64(model.mu),
            "variant": model.variant,
            "s1": np.float64(ecfg.s1),
            "s2": np.float64(ecfg.s2),
        },
    )
    dim = embedding_length(model.n_anchors, model.dim, ecfg)
    print(f"embedded: {out} ({len(sets)} images, dim {dim})")
    return 0


_EmbeddedImage = tuple[str, np.ndarray, np.ndarray]  # image id, descriptor columns, coefficients


def _load_embedded(path: Path) -> tuple[list[_EmbeddedImage], CodingModel, EmbeddingConfig]:
    """Each image's descriptors and coefficients, and what embeds them.

    The embedded vectors themselves are not stored; ``embed_faemb_batch``
    rebuilds an image's rows from its entry.
    """
    sections = read_container(path)
    if _expect(sections, "model_type", path, str) != "embedded":
        raise StorageError(f"{path}: not an embedded-vector file")
    ids = json.loads(_expect(sections, "ids", path, str))
    counts = _expect(sections, "counts", path, np.ndarray)
    values = _expect(sections, "values", path, np.ndarray)
    gamma = _expect(sections, "gamma", path, np.ndarray)
    anchors = _expect(sections, "anchors", path, np.ndarray)
    mu = _expect_scalar(sections, "mu", path)
    variant = _expect(sections, "variant", path, str)
    s1 = _expect_scalar(sections, "s1", path)
    s2 = _expect_scalar(sections, "s2", path)
    if not ids:
        raise StorageError(f"{path}: embedded-vector file holds no images")
    if not (counts.dtype == np.int64 and counts.shape == (len(ids),) and (counts >= 1).all()):
        raise StorageError(f"{path}: section 'counts' must hold one int64 count >= 1 per id")
    if not (values.dtype == np.float32 and values.ndim == 2 and values.shape[0] == counts.sum()):
        raise StorageError(f"{path}: section 'values' must be 2-D float32 with sum(counts) rows")
    if not (anchors.ndim == 2 and anchors.shape[0] == values.shape[1]):
        raise StorageError(f"{path}: section 'anchors' must have a row per column of 'values'")
    if not (gamma.dtype == np.float64 and gamma.shape == (anchors.shape[1], values.shape[0])):
        raise StorageError(f"{path}: section 'gamma' must be float64 of shape (anchors, value rows)")
    model = CodingModel(anchors=anchors, mu=float(mu), variant=variant)
    ecfg = EmbeddingConfig(s1=float(s1), s2=float(s2))
    starts = np.cumsum(counts)[:-1]
    columns = np.split(values.astype(np.float64).T, starts, axis=1)
    return list(zip(ids, columns, np.split(gamma, starts, axis=1))), model, ecfg


def _cmd_fit_agg(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    images, coding, ecfg = _load_embedded(_require(args.input, "embedded-vector"))
    drop = cfg.drop if cfg.drop is not None else default_drop(coding.dim)
    ends = np.cumsum([X.shape[1] for _, X, _ in images])
    stacked = np.empty((int(ends[-1]), embedding_length(coding.n_anchors, coding.dim, ecfg)))

    def embed_into_stack(k: int) -> None:
        _, X, G = images[k]
        stacked[ends[k] - X.shape[1] : ends[k]] = embed_faemb_batch(X, G, coding, ecfg)

    parallel_map(embed_into_stack, range(len(images)), cfg.threads)
    # else the file's arrays stay alive beside the stack and its centered copy
    del images, embed_into_stack
    _log(f"fitting whitening on {stacked.shape[0]} vectors of dim {stacked.shape[1]}, drop={drop}")
    model = fit_whitening(stacked, drop=drop)
    out = _model_path(cfg, args.out, "whitening.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model)
    print(f"whitening: {out} (out dim {model.out_dim})")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    images, coding, ecfg = _load_embedded(_require(args.input, "embedded-vector"))
    whitening = load_model(_require(args.whitening or str(_model_path(cfg, None, "whitening.famb")), "whitening model"))
    agg = AggregationParams(mode=cfg.mode, alpha=cfg.alpha)
    rn = load_model(_require(args.rn, "rotation model")) if args.rn else None
    _log(f"aggregating {len(images)} images (mode={cfg.mode}, alpha={cfg.alpha})")

    def signature(image: _EmbeddedImage):
        image_id, X, G = image
        embedded = embed_faemb_batch(X, G, coding, ecfg)
        return signature_from_embedded(embedded, whitening, agg, image_id=image_id)

    sigs = parallel_map(signature, images, cfg.threads)
    if rn is not None:
        sigs = [apply_rn(s, rn) for s in sigs]
    out = _model_path(cfg, args.out, "signatures.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_signatures(out, sigs)
    degenerate = sum(s.degenerate for s in sigs)
    print(f"signatures: {out} ({len(sigs)} images, dim {sigs[0].dim}, {degenerate} degenerate)")
    return 0


def _cmd_fit_rn(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    sigs = load_signatures(_require(args.input, "signature"))
    Psi = np.stack([s.values for s in sigs])
    _log(f"fitting rotation norm on {Psi.shape[0]} signatures, keep={cfg.keep}")
    model = fit_rotation_norm(Psi, keep=cfg.keep)
    out = _model_path(cfg, args.out, "rn.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model)
    print(f"rotation_norm: {out} (keep {model.out_dim})")
    return 0


def _cmd_fit_itq(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    sigs = load_signatures(_require(args.input, "signature"))
    Psi = np.stack([s.values for s in sigs])
    _log(f"fitting ITQ: {cfg.bits} bits, {cfg.itq_iters} iterations")
    fit = fit_itq(Psi, bits=cfg.bits, iters=cfg.itq_iters, seed=cfg.seed)
    out = _model_path(cfg, args.out, "itq.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, fit.model)
    err = fit.quantization_errors
    if err.size:
        print(f"quantization error: {err[0]:.4f} -> {err[-1]:.4f}")
    print(f"itq: {out}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    sigs = load_signatures(_require(args.input, "signature"))
    model = load_model(_require(args.itq or str(_model_path(cfg, None, "itq.famb")), "ITQ model"))
    _log(f"encoding {len(sigs)} signatures to {model.bits}-bit codes")
    codes = parallel_map(lambda s: encode_itq(s, model), sigs, cfg.threads)
    out = _model_path(cfg, args.out, "codes.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_codes(out, codes)
    print(f"codes: {out} ({len(codes)} images, {model.bits} bits)")
    return 0


def _load_entries(path: Path):
    """Signatures or codes, detected by the container's model_type."""
    sections = read_container(path)
    kind = sections.get("model_type")
    if kind == "signatures":
        return _signatures_from_sections(sections, path)
    if kind == "codes":
        return _codes_from_sections(sections, path)
    raise StorageError(f"{path}: expected a signature or code file, got {kind!r}")


def _cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    entries = _load_entries(_require(args.input, "signature/code"))
    index = build_index(entries) if hasattr(entries[0], "values") else build_binary_index(entries)
    out = _model_path(cfg, args.out, "index.famb")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_index(out, index)
    print(f"index: {out} ({len(index)} entries, mode {index.mode})")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.k < 0:
        raise ValueError(f"--k must be >= 0 (0 = all); got {args.k}")
    index = load_index(_require(args.index, "index"))
    queries = _load_entries(_require(args.queries, "query"))
    if args.query_id is not None:
        queries = [q for q in queries if q.image_id == args.query_id]
        if not queries:
            raise ValueError(f"query id {args.query_id!r} not present in query file")
    k = args.k or None
    for q in queries:
        for rank, (rid, dist) in enumerate(search(q, index, k), start=1):
            print(f"{q.image_id}\t{rank}\t{rid}\t{dist:.6f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    index = load_index(_require(args.index, "index"))
    queries = _load_entries(_require(args.queries, "query"))
    gt = load_ground_truth(_require(args.gt or cfg.ground_truth_path, "ground-truth"))
    _log(f"evaluating {len(queries)} queries against {len(index)} entries")
    report = evaluate_map(queries, index, gt)
    for qid, ap in report.per_query.items():
        print(f"AP  {qid}  {ap:.4f}")
    print(f"mAP {report.mean_average_precision:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (key = value with [section] headers)")
    common.add_argument("--n", type=int, help="number of anchors")
    common.add_argument("--mu", type=float, help="coding regularization strength")
    common.add_argument("--variant", choices=("faemb", "ffaemb"), help="coding variant")
    common.add_argument("--alpha", type=float, help="power-law exponent")
    common.add_argument("--drop", type=int, help="leading whitened components to drop (-1 = auto)")
    common.add_argument("--keep", type=int, help="short-representation length")
    common.add_argument("--bits", type=int, help="binary code length")
    common.add_argument("--threads", type=int, help="worker threads")
    common.add_argument("--seed", type=int, help="random seed")

    parser = argparse.ArgumentParser(
        prog="faemb",
        description="Local-descriptor embedding and retrieval pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", parents=[common], help="print configuration")
    p.add_argument("--dump-defaults", action="store_true", help="print the default configuration")
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic planted-cluster corpus")
    p.add_argument("--out-dir", required=True, help="directory for corpus.faeb and ground_truth.txt")
    p.add_argument("--clusters", type=int, default=20)
    p.add_argument("--per-cluster", type=int, default=5)
    p.add_argument("--descriptors", type=int, default=200, help="descriptors per image")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--sigma", type=float, default=0.2, help="within-cluster noise level")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-coding", parents=[common], help="learn anchors and coding model")
    p.add_argument("--train", help="training descriptor file")
    p.add_argument("--out", help="output model path")
    p.set_defaults(func=_cmd_train_coding)

    p = sub.add_parser("embed", parents=[common], help="embed every descriptor of every image")
    p.add_argument("--coding", help="coding model file")
    p.add_argument("--in", dest="input", help="descriptor file")
    p.add_argument("--out", help="output embedded-vector file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("fit-agg", parents=[common], help="fit the whitening stage")
    p.add_argument("--in", dest="input", required=True, help="embedded-vector file")
    p.add_argument("--out", help="output whitening model path")
    p.set_defaults(func=_cmd_fit_agg)

    p = sub.add_parser("aggregate", parents=[common], help="aggregate embedded vectors into signatures")
    p.add_argument("--in", dest="input", required=True, help="embedded-vector file")
    p.add_argument("--whitening", help="whitening model file")
    p.add_argument("--rn", help="optional rotation-norm model to apply")
    p.add_argument("--out", help="output signature file")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("fit-rn", parents=[common], help="fit rotation normalization on signatures")
    p.add_argument("--in", dest="input", required=True, help="signature file")
    p.add_argument("--out", help="output model path")
    p.set_defaults(func=_cmd_fit_rn)

    p = sub.add_parser("fit-itq", parents=[common], help="fit the binary quantizer")
    p.add_argument("--in", dest="input", required=True, help="signature file")
    p.add_argument("--out", help="output model path")
    p.set_defaults(func=_cmd_fit_itq)

    p = sub.add_parser("encode", parents=[common], help="binarize signatures")
    p.add_argument("--in", dest="input", required=True, help="signature file")
    p.add_argument("--itq", help="ITQ model file")
    p.add_argument("--out", help="output code file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("index", parents=[common], help="build a search index")
    p.add_argument("--in", dest="input", required=True, help="signature or code file")
    p.add_argument("--out", help="output index path")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", parents=[common], help="rank the index for queries")
    p.add_argument("--index", required=True, help="index file")
    p.add_argument("--queries", required=True, help="signature or code file with queries")
    p.add_argument("--query-id", help="restrict to one query id")
    p.add_argument("--k", type=int, default=0, help="top-k (0 = all)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", parents=[common], help="mean average precision against ground truth")
    p.add_argument("--index", required=True, help="index file")
    p.add_argument("--queries", required=True, help="signature or code file with queries")
    p.add_argument("--gt", help="ground-truth file")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        KeyError,
        OSError,
        StorageError,
        ConfigError,
        np.linalg.LinAlgError,
    ) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
