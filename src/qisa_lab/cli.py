"""Command-line entry point: train, eval, generate, params, cache, bench.

The package's ``__init__`` applies QISA_LAB_THREADS, the BLAS thread
cap, before numpy loads, so it holds for every command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from .errors import CheckpointError, ConfigError, QisaLabError
from .model import ModelConfig
from .training import TrainConfig


DEFAULT_TRAIN = asdict(TrainConfig())
FULL_TRAIN = {**DEFAULT_TRAIN, "epochs": 2, "batch": 1024, "eval_every": 200}

_PRESET_SHAPES = {
    "emb4-h1": {"m": 4, "H": 1},
    "emb16-h1": {"m": 16, "H": 1},
    "emb16-h4": {"m": 16, "H": 4},
}


def preset_config(name: str) -> dict:
    """Desk-scale preset: <shape>-<variant>, e.g. emb16-h1-qisa."""
    for shape, model_part in _PRESET_SHAPES.items():
        if name.startswith(shape + "-"):
            variant = name[len(shape) + 1:]
            # every other model field takes ModelConfig's default
            model = {f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING}
            model.update(variant=variant, **model_part)
            return {"model": model, "train": dict(DEFAULT_TRAIN), "data": {"corpus": "bundled"}}
    raise ConfigError(
        f"unknown preset {name!r}; presets look like emb4-h1-qisa, emb16-h1-csa, emb16-h4-qsann_v2")


def _read_config(path) -> dict:
    """A JSON config file: an object with a 'model' object and optional
    'train' and 'data' objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also UnicodeDecodeError
        raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError(f"config file {path} is not a JSON object with a 'model' section")
    for section in ("model", "train", "data"):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object, got {cfg[section]!r:.40}")
    return cfg


def load_config(args) -> dict:
    if getattr(args, "preset", None):
        cfg = preset_config(args.preset)
    elif getattr(args, "config", None):
        cfg = _read_config(args.config)
    else:
        raise ConfigError("pass --config FILE or --preset NAME")
    cfg.setdefault("train", dict(DEFAULT_TRAIN))
    cfg.setdefault("data", {"corpus": "bundled"})
    if getattr(args, "full", False):
        cfg["train"].update(FULL_TRAIN)
        if not getattr(args, "corpus", None) and cfg["data"].get("corpus") == "bundled":
            raise ConfigError(
                "the full reproduction needs a real corpus; pass --corpus FILE "
                "(see `qisa-lab fetch-corpus-info`)")
    if getattr(args, "corpus", None):
        cfg["data"]["corpus"] = args.corpus
    if getattr(args, "seed", None) is not None:
        cfg["model"]["seed"] = args.seed
        cfg["train"]["seed"] = args.seed
    return cfg


def _load_split(data_cfg: dict, vocab=None):
    """Vocabulary (built from the text unless given) and train/test split of
    a config's or a checkpoint's ``data`` section, its fields type-checked."""
    from .data import BUNDLED_CORPUS, build_vocab, load_corpus, split_dataset
    from .model import is_number

    unknown = set(data_cfg) - {"corpus", "corpus_fraction", "split_fraction"}
    if unknown:
        raise ConfigError(f"unknown data config fields: {sorted(unknown)}")
    corpus = data_cfg.get("corpus", "bundled")
    fraction = data_cfg.get("corpus_fraction", 1.0)
    split_fraction = data_cfg.get("split_fraction", 0.2)
    if not isinstance(corpus, str):
        raise ConfigError(f"data.corpus must be a path or \"bundled\", got {corpus!r}")
    if not is_number(fraction) or not 0 < fraction <= 1:
        raise ConfigError(f"data.corpus_fraction must be a number in (0, 1], got {fraction!r}")
    if not is_number(split_fraction) or not 0 < split_fraction < 1:
        raise ConfigError(f"data.split_fraction must be a number in (0, 1), got {split_fraction!r}")
    text = load_corpus(BUNDLED_CORPUS if corpus == "bundled" else Path(corpus))
    if fraction < 1:
        text = text[: int(len(text) * fraction)]
    if vocab is None:
        vocab = build_vocab(text)
    return vocab, split_dataset(vocab.encode(text), split_fraction)


@contextmanager
def _output(flag: str, path):
    """An output path that cannot be created or written ends as a
    ConfigError that names the flag and the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag} {path} cannot be written: {exc.strerror or exc}") from exc


def _build_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=5, cwd=Path(__file__).parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    from . import __version__

    return f"qisa-lab-{__version__}"


def write_manifest(path: Path, config: dict, seed: int, outputs: dict, timings: dict) -> None:
    manifest = {"config": config, "git_or_build_id": _build_id(), "seed": seed,
                "outputs": {k: str(v) for k, v in outputs.items()}, "timings": timings}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def write_rows_csv(rows, path: Path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "split", "metric", "value"])
        for row in rows:
            writer.writerow(row)


def write_loss_svg(rows, path: Path, width=720, height=400) -> None:
    """Self-contained SVG line chart of the loss curves by split."""
    series: dict[str, list[tuple[int, float]]] = {}
    for step, split, metric, value in rows:
        if metric == "ce":
            series.setdefault(split, []).append((int(step), float(value)))
    if not series:
        return
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs) or 1
    y0, y1 = min(ys), max(ys)
    if y1 - y0 < 1e-9:
        y1 = y0 + 1.0
    pad = 45

    def sx(x):
        return pad + (x - x0) / max(x1 - x0, 1) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = {"train": "#1f77b4", "test": "#d62728"}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for split, pts in series.items():
        path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path_d}" fill="none" '
                     f'stroke="{colors.get(split, "#2ca02c")}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 80}" y="{pad + 16 * len(parts) % 60}" '
                     f'fill="{colors.get(split, "#2ca02c")}" font-size="12">{split}</text>')
    for frac in (0.0, 0.5, 1.0):
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="4" y="{sy(yv):.0f}" font-size="11">{yv:.2f}</text>')
        xv = x0 + frac * (x1 - x0)
        parts.append(f'<text x="{sx(xv):.0f}" y="{height - 8}" font-size="11">{int(xv)}</text>')
    parts.append('<text x="8" y="16" font-size="12">cross-entropy vs step</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    from .model import LanguageModel
    from .training import evaluate_ce, train

    cfg = load_config(args)
    out_dir = Path(args.out_dir)
    with _output("--out-dir", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    vocab, split = _load_split(cfg["data"])
    timings["data_s"] = time.perf_counter() - t0

    model_cfg = dict(cfg["model"])
    model_cfg["vocab_size"] = vocab.size
    model = LanguageModel(ModelConfig.from_dict(model_cfg))
    train_cfg = TrainConfig.from_dict(cfg["train"])
    if len(split.test_ids) <= model.config.l:
        raise ConfigError(f"data.split_fraction {split.split_fraction} leaves {len(split.test_ids)} test "
                          f"ids, fewer than one {model.config.l + 1}-id window for the final evaluation")
    print(f"training variant={model.config.variant} m={model.config.m} H={model.config.H} "
          f"layers={model.config.n_layers} params={model.total_param_count()}")

    t0 = time.perf_counter()
    model, rows = train(model, split, train_cfg, checkpoint_path=out_dir / "checkpoint",
                        vocab=vocab, checkpoint_extra={"data": cfg["data"]})
    timings["train_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ce, std = evaluate_ce(model, split.test_ids)
    timings["eval_s"] = time.perf_counter() - t0
    step = rows[-1][0] + 1 if rows else 0  # the number of steps trained
    rows += [(step, "test", "ce", ce), (step, "test", "ce_final", ce)]

    outputs = {"checkpoint_json": out_dir / "checkpoint.json",
               "checkpoint_bin": out_dir / "checkpoint.bin",
               "loss_csv": out_dir / "loss.csv",
               "loss_svg": out_dir / "loss.svg",
               "manifest": out_dir / "manifest.json"}
    write_rows_csv(rows, outputs["loss_csv"])
    write_loss_svg(rows, outputs["loss_svg"])
    cfg_snapshot = {**cfg, "model": {**cfg["model"], "vocab_size": vocab.size}}
    write_manifest(outputs["manifest"], cfg_snapshot, train_cfg.seed, outputs, timings)
    print(f"final test ce {ce:.4f} +- {std:.4f}; outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    from .model import LanguageModel
    from .data import Vocab
    from .qsim import load_cache
    from .training import evaluate_ce, evaluate_cer_wer

    model, manifest = LanguageModel.read(args.checkpoint)
    if manifest.get("vocab") is None:
        raise ConfigError("checkpoint has no vocabulary; evaluation needs one")
    vocab = Vocab(tuple(manifest["vocab"]))
    extra = manifest.get("extra", {})
    data_cfg = extra.get("data", {}) if isinstance(extra, dict) else None
    if not isinstance(data_cfg, dict):
        raise CheckpointError(f"checkpoint {args.checkpoint}: 'extra' and 'extra.data' must be JSON objects")
    if args.corpus:
        data_cfg["corpus"] = args.corpus
    _, split = _load_split(data_cfg, vocab)
    out = Path(args.out) if args.out else Path(str(args.checkpoint) + ".metrics.json")
    existed = out.exists()
    with _output("--out", out), open(out, "a", encoding="utf-8"):
        pass  # an unwritable --out fails here, before the evaluation
    if not existed:
        out.unlink()

    cache = load_cache(args.cache) if args.cache else None
    t0 = time.perf_counter()
    ce = evaluate_ce(model, split.test_ids, cache=cache)
    cer_stats, wer_stats = evaluate_cer_wer(model, split.test_ids, vocab, n_windows=args.windows,
                                            gen_chars=args.gen_chars, cache=cache)
    wall = time.perf_counter() - t0
    report = {"ce_mean": ce[0], "ce_std": ce[1], "steps": 0, "wall_time_s": wall,
              "cer_mean": cer_stats[0], "cer_std": cer_stats[1],
              "wer_mean": wer_stats[0], "wer_std": wer_stats[1]}
    print(f"CE  {ce[0]:.4f} +- {ce[1]:.4f}")
    print(f"CER {cer_stats[0]:.4f} +- {cer_stats[1]:.4f}")
    print(f"WER {wer_stats[0]:.4f} +- {wer_stats[1]:.4f}")
    with _output("--out", out), open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {out}")
    return 0


def cmd_generate(args) -> int:
    from .data import Vocab
    from .model import LanguageModel
    from .training import generate

    model, vocab_chars = LanguageModel.load(args.checkpoint)
    if vocab_chars is None:
        raise ConfigError("checkpoint has no vocabulary; generation needs one")
    vocab = Vocab(tuple(vocab_chars))
    prompt = vocab.encode(args.prompt)[-model.config.l :]
    ids = generate(model, prompt, args.n_chars, mode=args.mode,
                   temperature=args.temperature, seed=args.seed or 0)
    print(args.prompt + vocab.decode(ids))
    return 0


def cmd_params(args) -> int:
    from .attention import VARIANTS, AttentionSpec, count_params, output_projection_params

    if args.config:
        cfg = ModelConfig.from_dict({"vocab_size": 1, "variant": "csa", **_read_config(args.config)["model"]})
        m, H, p, l = cfg.m, cfg.H, cfg.p, cfg.l
    else:
        m, H, p, l = args.m, args.heads, args.p, args.l
    import warnings

    with warnings.catch_warnings():  # every spec is checked before the table starts
        warnings.simplefilter("ignore")
        specs = [AttentionSpec(variant, m=m, H=H, l=l, p=p) for variant in VARIANTS]
    print(f"per-head and total attention parameter counts at m={m}, H={H}, p={p}, l={l}")
    print(f"{'variant':<10} {'per head':>10} {'+output':>10} {'total':>10}")
    for spec in specs:
        per_head = count_params(spec)
        wo = output_projection_params(spec)
        print(f"{spec.variant:<10} {per_head:>10} {wo:>10} {per_head * H + wo:>10}")
    return 0


def cmd_cache(args) -> int:
    from .model import LanguageModel
    from .qsim import save_cache

    model, _ = LanguageModel.load(args.checkpoint)
    cache = model.build_observable_cache()
    out = Path(args.out) if args.out else Path(str(args.checkpoint) + ".cache")
    try:
        save_cache(cache, out)
    except ConfigError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    n_mats = sum(len(a) * a.shape[1] for roles in cache.evolved.values() for a in roles.values())
    print(f"cached {n_mats} evolved observables ({cache.variant}) to {out}")
    return 0


def cmd_bench(args) -> int:
    import csv

    import numpy as np

    from .model import LanguageModel
    from .tensor import cross_entropy, graph_nodes, no_grad
    from .training import Adam, train_step

    if args.steps < 1 or args.warmup < 0 or args.batch < 1:
        raise ConfigError(f"bench needs --steps >= 1, --warmup >= 0 and --batch >= 1, "
                          f"got --steps {args.steps}, --warmup {args.warmup}, --batch {args.batch}")
    variants = [v.strip() for v in args.variants.split(",")]
    out_dir = Path(args.out_dir)
    with _output("--out-dir", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    rng = np.random.default_rng(0)
    vocab_size = 59
    for variant in variants:
        model = LanguageModel(ModelConfig(vocab_size=vocab_size, m=args.m, H=args.heads,
                                          n_layers=args.layers, l=16, variant=variant,
                                          p=args.p, seed=0))
        ids = rng.integers(0, vocab_size, size=(args.batch, 16))
        targets = rng.integers(0, vocab_size, size=(args.batch, 16))
        loss = cross_entropy(model.forward(ids, training=True).reshape(-1, vocab_size), targets.reshape(-1))
        rows.append((variant, "train", "graph_nodes", graph_nodes(loss)))

        opt = Adam(model.named_parameters())
        rows += _timed(variant, {"train": lambda: train_step(model, opt, ids, targets, 1.0)},
                       args.warmup, args.steps)

        def infer_step():
            with no_grad():
                model.forward(ids)

        infer_phases = {"infer": infer_step}
        if model.blocks[0].attn.features:
            cache = model.coefficients(model.build_observable_cache())

            def cached_step():
                with no_grad():
                    model.forward(ids, cache=cache)

            infer_phases["infer_cached"] = cached_step
        rows += _timed(variant, infer_phases, args.warmup, args.steps)

    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "phase", "stat", "value"])
        writer.writerows(rows)
    flags = {k: v for k, v in vars(args).items() if k not in ("fn", "command")}
    write_manifest(out_dir / "manifest.json", {"bench": flags}, 0, {"bench_csv": csv_path}, {})
    for variant, phase, stat, value in rows:
        if stat == "median_s":
            print(f"{variant:<10} {phase:<14} {value * 1e3:8.2f} ms/step")
        elif stat == "graph_nodes":
            print(f"{variant:<10} {phase:<14} {value:8d} graph nodes")
    print(f"wrote {csv_path}")
    return 0


def _timed(variant, phases, warmup, steps):
    """Median/mean seconds per step of each ``{phase: fn}``, in dict order.

    The phases run in alternation, one step of each per round, so that
    a drift in machine load shifts all of them alike instead of biasing
    whichever phase happened to run in the slower window.
    """
    import numpy as np

    times = {phase: [] for phase in phases}
    for step in range(warmup + steps):
        for phase, fn in phases.items():
            t0 = time.perf_counter()
            fn()
            if step >= warmup:
                times[phase].append(time.perf_counter() - t0)
    rows = []
    for phase, ts in times.items():
        rows += [(variant, phase, "median_s", float(np.median(ts))),
                 (variant, phase, "mean_s", float(np.mean(ts)))]
    return rows


def cmd_fetch_corpus_info(args) -> int:
    from .data import BUNDLED_CORPUS, CORPUS_URL

    print("This tool never downloads data itself.")
    print(f"Public-domain corpus URL: {CORPUS_URL}")
    print("Download it with e.g.:")
    print(f"  curl -o shakespeare.txt {CORPUS_URL}")
    print(f"A small bundled sample ships at: {BUNDLED_CORPUS}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qisa-lab",
                                     description="character-level language modeling with swappable "
                                                 "classical / quantum-inspired / simulated-quantum attention")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint + loss curves")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help="named preset, e.g. emb16-h1-qisa")
    p.add_argument("--corpus", help="corpus path (overrides config)")
    p.add_argument("--out-dir", default="runs/latest")
    p.add_argument("--seed", type=int)
    p.add_argument("--full", action="store_true",
                   help="reproduction settings: 2 epochs, batch 1024 (needs --corpus)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="report CE/CER/WER for a checkpoint")
    p.add_argument("--checkpoint", required=True, help="path prefix written by train")
    p.add_argument("--corpus")
    p.add_argument("--cache", help="evolved-observable cache file for fast inference")
    p.add_argument("--windows", type=int, default=100)
    p.add_argument("--gen-chars", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="continue a prompt")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--n-chars", type=int, default=200)
    p.add_argument("--mode", choices=["greedy", "sample"], default="greedy")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("params", help="parameter-count table for all variants")
    p.add_argument("--config")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--l", type=int, default=16)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("cache", help="build the evolved-observable cache from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("bench", help="timing comparison across variants")
    p.add_argument("--variants", default="csa,qisa")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out-dir", default="runs/bench")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("fetch-corpus-info", help="print where to get a public-domain corpus")
    p.set_defaults(fn=cmd_fetch_corpus_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QisaLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
