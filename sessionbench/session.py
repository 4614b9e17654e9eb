"""One closed-loop session of the lab: set up, train, cache, evaluate, generate.

A single caller runs each step to its end before starting the next.  The
session trains every variant of its workload through ``qisa_lab.training
.train``, then repeats rounds of CLI commands (``cache``, ``eval``,
``eval --cache``, ``generate``) called in-process through
``qisa_lab.cli.main`` until the run's time is spent, and finally checks
the outputs of the first round against :mod:`oracles` and those of every
later round against the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles
from tracing import ROUND_PHASE, TRAIN_PHASE, Tracer, layer_metrics

from qisa_lab import cli, data, training
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.tensor import no_grad

COMMANDS = ("cache", "eval", "eval_cached", "generate")
SETUP_REPEATS = 5  # before training
ROUND_SETUP_REPEATS = 3  # at the start of each round
CE_ATOL = 1e-9
LOGITS_ATOL = 1e-10
RATE_ATOL = 1e-12


@dataclass(frozen=True)
class Part:
    """One variant's share of a workload.

    ``reps`` gives how often each command runs per round; ``windows`` and
    ``gen_chars`` are the ``eval`` flags; each round generates ``n_chars``
    characters from each of ``prompts`` prompts.
    """

    variant: str
    steps: int
    windows: int
    gen_chars: int
    prompts: int
    n_chars: int
    reps: dict = field(default_factory=lambda: {"cache": 1, "eval": 1, "eval_cached": 1})


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int
    split_fraction: float
    parts: tuple[Part, ...]

    def smoke(self) -> "Workload":
        """The same phases and checks at a few seconds' size, for tests."""
        parts = tuple(replace(p, steps=4, windows=2, gen_chars=3, prompts=1, n_chars=3,
                              reps=dict.fromkeys(p.reps, 1))
                      for p in self.parts)
        return replace(self, parts=parts)


WORKLOADS = {
    w.name: w for w in (
        Workload("csa-m16", batch=256, split_fraction=0.2, parts=(
            Part("csa", steps=60, windows=50, gen_chars=32, prompts=2, n_chars=128,
                 reps={"cache": 10, "eval": 1, "eval_cached": 1}),)),
        Workload("qisa-m16", batch=256, split_fraction=0.2, parts=(
            Part("qisa", steps=36, windows=50, gen_chars=32, prompts=2, n_chars=128,
                 reps={"cache": 8, "eval": 1, "eval_cached": 1}),)),
        # qsann_v2's commands run more often, so that each variant takes about
        # half of every phase
        Workload("circuits-m16", batch=32, split_fraction=0.01, parts=(
            Part("qsann", steps=3, windows=4, gen_chars=1, prompts=1, n_chars=3),
            Part("qsann_v2", steps=16, windows=8, gen_chars=2, prompts=2, n_chars=18,
                 reps={"cache": 20, "eval": 4, "eval_cached": 4}),)),
    )
}


@dataclass
class Op:
    """One attempted operation and the output its checks look at."""

    command: str
    variant: str
    seconds: float = 0.0
    output: object = None
    error: str | None = None


class Session:
    def __init__(self, workload: Workload, seed: int, out_dir: Path, tracer: Tracer | None):
        self.w = workload
        self.seed = seed
        self.out = out_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        self.check_failures: list[str] = []
        self.setup_seconds: list[float] = []
        self.step_seconds: dict[str, list[float]] = {}
        self.losses: dict[str, list[float]] = {}
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.first: dict[tuple[str, str, int], Op] = {}
        self.prompts: dict[str, list[str]] = {}
        self.models: dict[str, LanguageModel] | None = None

    # -- helpers -------------------------------------------------------------

    def _phase(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _fail(self, op: Op, message: str) -> None:
        op.error = op.error or message
        self.check_failures.append(f"{op.command} {op.variant}: {message}")

    def _ckpt(self, variant: str) -> str:
        return str(self.out / variant)

    def _model_config(self, variant: str, vocab_size: int) -> dict:
        model = dict(cli.preset_config(f"emb16-h1-{variant}")["model"])
        model.update(seed=self.seed, vocab_size=vocab_size)
        return model

    # -- phases --------------------------------------------------------------

    def setup(self, repeats: int) -> None:
        """Load the corpus and build every model, ``repeats`` times.

        The first set-up's corpus and models are the ones the session uses;
        the rest only add samples to ``setup_seconds``.  The session takes
        samples at the start of every round as well, so that their median
        does not rest on one moment of the run.
        """
        for _ in range(repeats):
            t0 = time.perf_counter()
            text = data.load_corpus(data.BUNDLED_CORPUS)
            vocab = data.build_vocab(text)
            split = data.split_dataset(vocab.encode(text), 0.2)
            models = {p.variant: LanguageModel(ModelConfig.from_dict(
                self._model_config(p.variant, vocab.size))) for p in self.w.parts}
            self.setup_seconds.append(time.perf_counter() - t0)
            if self.models is None:
                self.text, self.vocab, self.split, self.models = text, vocab, split, models

    def train(self, part: Part) -> None:
        """Train one variant for ``part.steps`` Adam steps on a seeded stretch of the train split."""
        l, batch = self.models[part.variant].config.l, self.w.batch
        n_ids = l + part.steps * batch  # batch_iter yields exactly part.steps batches
        offset = int(self.rng.integers(0, len(self.split.train_ids) - n_ids + 1))
        # no test ids: the periodic and final test evaluations stay out of training
        split = data.SplitDataset(self.split.train_ids[offset:offset + n_ids],
                                  np.empty(0, dtype=np.int64))
        cfg = dict(cli.preset_config(f"emb16-h1-{part.variant}")["train"])
        cfg.update(batch=batch, epochs=1, eval_every=0, seed=self.seed)
        data_cfg = {"corpus": "bundled", "split_fraction": self.w.split_fraction}

        stamps = []
        batch_iter = training.batch_iter

        def stamped(*args, **kwargs):
            for item in batch_iter(*args, **kwargs):
                stamps.append(time.perf_counter())
                yield item
            stamps.append(time.perf_counter())

        op = Op("train", part.variant)
        self.ops.append(op)
        training.batch_iter = stamped
        t0 = time.perf_counter()
        try:
            with self._phase(TRAIN_PHASE):
                _, rows = training.train(self.models[part.variant], split,
                                         training.TrainConfig.from_dict(cfg),
                                         checkpoint_path=self._ckpt(part.variant), vocab=self.vocab,
                                         checkpoint_extra={"data": data_cfg})
        except Exception:
            op.error = traceback.format_exc()
            return
        finally:
            training.batch_iter = batch_iter
            op.seconds = time.perf_counter() - t0
        if len(stamps) == part.steps + 1:
            self.step_seconds[part.variant] = list(np.diff(stamps))
        else:  # training no longer draws its batches through batch_iter
            print(f"train {part.variant}: no per-step times; train_tok_s uses the whole train() call")
            self.step_seconds[part.variant] = [op.seconds / part.steps] * part.steps
        self.losses[part.variant] = [v for _, split_name, metric, v in rows
                                     if split_name == "train" and metric == "ce"]
        self._check_training(op, part)

    def _check_training(self, op: Op, part: Part) -> None:
        losses = np.asarray(self.losses[part.variant])
        if len(losses) != part.steps or not np.isfinite(losses).all():
            self._fail(op, f"expected {part.steps} finite losses, got {losses}")
            return
        third = max(1, len(losses) // 3)
        if not losses[-third:].mean() < losses[:third].mean():
            self._fail(op, f"loss did not fall: first {losses[:third]}, last {losses[-third:]}")
        ckpt = self._ckpt(part.variant)
        with open(ckpt + ".json", encoding="utf-8") as fh:
            recorded = json.load(fh)["parameter_hash"]
        actual = oracles.sha256_file(ckpt + ".bin")
        if actual != recorded:
            self._fail(op, f"checkpoint sha256 {actual} != manifest parameter_hash {recorded}")
        print(f"checkpoint {part.variant} sha256 {actual}")

    def draw_prompts(self, part: Part) -> None:
        """Seeded prompts of the context length, cut from the test split's text."""
        l = self.models[part.variant].config.l
        n_test = int(len(self.text) * self.w.split_fraction)
        test_text = self.text[len(self.text) - n_test:]
        starts = self.rng.integers(0, len(test_text) - l, size=part.prompts)
        self.prompts[part.variant] = [test_text[s:s + l] for s in starts]

    def _cli(self, op: Op, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        op.seconds = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue()

    def _command(self, command: str, part: Part, rep: int) -> None:
        v, ckpt = part.variant, self._ckpt(part.variant)
        op = Op(command, v)
        self.ops.append(op)
        try:
            if command == "cache":
                rc, _, err = self._cli(op, ["cache", "--checkpoint", ckpt, "--out", ckpt + ".cache"])
                if v == "csa":  # the classical variant has nothing to cache: a typed refusal
                    op.output = (rc, err.strip())
                    if rc != 2 or "no observables to cache" not in err:
                        self._fail(op, f"expected the typed refusal (exit 2), got {rc}: {err!r}")
                elif rc != 0:
                    self._fail(op, f"exit {rc}: {err!r}")
                else:
                    op.output = oracles.sha256_file(ckpt + ".cache")
            elif command in ("eval", "eval_cached"):
                out = f"{ckpt}.{command}.json"
                argv = ["eval", "--checkpoint", ckpt, "--windows", str(part.windows),
                        "--gen-chars", str(part.gen_chars), "--out", out]
                if command == "eval_cached" and v != "csa":  # csa's only eval has no cache
                    argv += ["--cache", ckpt + ".cache"]
                rc, _, err = self._cli(op, argv)
                if rc != 0:
                    self._fail(op, f"exit {rc}: {err!r}")
                else:
                    with open(out, encoding="utf-8") as fh:
                        report = json.load(fh)
                    op.output = tuple(report[k] for k in ("ce_mean", "ce_std", "cer_mean",
                                                          "cer_std", "wer_mean", "wer_std"))
            else:
                prompt = self.prompts[v][rep]
                rc, out, err = self._cli(op, ["generate", "--checkpoint", ckpt, "--prompt", prompt,
                                              "--n-chars", str(part.n_chars)])
                if rc != 0 or not out.startswith(prompt):
                    self._fail(op, f"exit {rc}: {err!r}")
                else:
                    op.output = out[len(prompt):].removesuffix("\n")
        except Exception:
            op.error = traceback.format_exc()
            return
        if op.error is None:
            self.samples.setdefault((command, v), []).append(op.seconds)
            first = self.first.setdefault((command, v, rep if command == "generate" else 0), op)
            if first.output != op.output:
                self._fail(op, f"output {op.output!r} differs from the first one's {first.output!r}")

    def round(self) -> None:
        for command in COMMANDS:
            for part in self.w.parts:
                count = part.prompts if command == "generate" else part.reps[command]
                for rep in range(count):
                    self._command(command, part, rep)

    # -- checks against the oracles ------------------------------------------

    def check(self, part: Part) -> None:
        """Check the first round's outputs of one variant against the oracles."""
        op = self.first.get(("eval", part.variant, 0))
        if op is None:
            return
        try:
            self._check(part, op)
        except Exception:
            self._fail(op, "the check raised " + traceback.format_exc())

    def _check(self, part: Part, op: Op) -> None:
        v, ckpt = part.variant, self._ckpt(part.variant)
        model, chars = LanguageModel.load(ckpt)
        l, vocab_size = model.config.l, model.config.vocab_size
        ids = oracles.read_corpus_ids(data.BUNDLED_CORPUS, chars)
        test_ids = oracles.split_test_ids(ids, self.w.split_fraction)

        def logits(x, cache=None):
            with no_grad():
                return np.concatenate([model.forward(x[i:i + 64], cache=cache).data
                                       for i in range(0, len(x), 64)])

        inputs, targets = oracles.ce_windows(test_ids, l)
        plain = logits(inputs)
        ce = float(oracles.window_ce(plain, targets).mean())
        ce_eval, _, cer_eval, _, wer_eval, _ = op.output
        if not abs(ce - ce_eval) <= CE_ATOL:
            self._fail(op, f"eval CE {ce_eval!r} != log-softmax CE {ce!r}")
        print(f"test CE {v} {ce:.4f} (ln vocab {math.log(vocab_size):.4f})")
        if not ce < math.log(vocab_size):
            self._fail(op, f"test CE {ce} is not below ln(vocab) = {math.log(vocab_size)}")

        starts = oracles.cer_wer_starts(len(test_ids), l, part.windows, part.gen_chars)
        prompts = np.stack([test_ids[s:s + l] for s in starts])
        hyps = oracles.greedy_continue(logits, prompts, part.gen_chars, l)
        refs = ["".join(chars[i] for i in test_ids[s + l:s + l + part.gen_chars]) for s in starts]
        cer, wer = oracles.cer_wer(refs, ["".join(chars[i] for i in h) for h in hyps])
        if not (abs(cer - cer_eval) <= RATE_ATOL and abs(wer - wer_eval) <= RATE_ATOL):
            self._fail(op, f"eval CER/WER {cer_eval}/{wer_eval} != oracle {cer}/{wer}")

        cached_op = self.first.get(("eval_cached", v, 0))
        if cached_op is not None:
            ce_c, _, cer_c, _, wer_c, _ = cached_op.output
            if not (abs(ce_c - ce_eval) <= CE_ATOL and cer_c == cer_eval and wer_c == wer_eval):
                self._fail(cached_op, f"eval --cache {cached_op.output} != eval {op.output}")
            if v != "csa":
                from qisa_lab.qsim import load_cache

                err = np.abs(logits(inputs, load_cache(ckpt + ".cache")) - plain).max()
                if not err <= LOGITS_ATOL:
                    self._fail(cached_op, f"cached logits differ from uncached by {err:.3g}")

        index = {ch: i for i, ch in enumerate(chars)}
        for rep, prompt in enumerate(self.prompts[v]):
            gen_op = self.first.get(("generate", v, rep))
            if gen_op is None:
                continue
            seq = np.array([index[ch] for ch in prompt + gen_op.output])
            if len(gen_op.output) != part.n_chars:
                self._fail(gen_op, f"generated {len(gen_op.output)} chars, asked for {part.n_chars}")
                continue
            windows = np.stack([seq[k:k + l] for k in range(part.n_chars)])
            best = logits(windows)[:, -1, :].argmax(axis=-1)
            if not np.array_equal(best, seq[l:]):
                self._fail(gen_op, "a generated character is not the argmax of its window's logits")

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """End-to-end metrics: per-round phase times from per-variant medians."""
        l = self.models[self.w.parts[0].variant].config.l
        tokens = sum(p.steps * self.w.batch * l for p in self.w.parts)
        step_time = sum(p.steps * statistics.median(self.step_seconds[p.variant]) for p in self.w.parts)

        def phase_s(command):
            return sum(p.reps[command] * statistics.median(self.samples[(command, p.variant)])
                       for p in self.w.parts)

        gen_chars = sum(p.prompts * p.n_chars for p in self.w.parts)
        gen_s = sum(p.prompts * statistics.median(self.samples[("generate", p.variant)])
                    for p in self.w.parts)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "train_tok_s": (tokens / step_time, "tok/s"),
            "cache_build_s": (phase_s("cache"), "s"),
            "eval_s": (phase_s("eval"), "s"),
            "eval_cached_s": (phase_s("eval_cached"), "s"),
            "gen_char_s": (gen_chars / gen_s, "char/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    def breakdown(self) -> dict[str, float]:
        """Median seconds of each command per variant, for the README's shares."""
        out = {f"train_step.{v}": statistics.median(s) for v, s in self.step_seconds.items()}
        out.update({f"{c}.{v}": statistics.median(s) for (c, v), s in self.samples.items()})
        return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, runs_dir: Path) -> dict:
    """Run one session; return the result object the benchmark prints last."""
    start = time.perf_counter()
    runs_dir.mkdir(parents=True, exist_ok=True)
    out_dir = runs_dir / f"{workload.name}-{seed}-{time.time_ns()}"
    out_dir.mkdir()
    tracer = Tracer() if trace else None
    session = Session(workload, seed, out_dir, tracer)
    rounds = 0
    marks = {}
    try:
        try:
            if tracer:
                tracer.install()
            session.setup(SETUP_REPEATS)
            marks["setup"] = time.perf_counter()
            for part in workload.parts:
                session.train(part)
                session.draw_prompts(part)
            trained = not any(op.error for op in session.ops)
            marks["train"] = time.perf_counter()
            while trained:
                t0 = time.perf_counter()
                session.setup(ROUND_SETUP_REPEATS)
                with session._phase(ROUND_PHASE):
                    session.round()
                rounds += 1
                # start another round only if it should end within the run's time
                now = time.perf_counter()
                if trace or now + (now - t0) > start + seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        marks["rounds"] = time.perf_counter()
        for part in workload.parts if trained else ():
            session.check(part)
        marks["checks"] = time.perf_counter()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [op for op in session.ops if op.error]
    for op in failed:
        print(f"failed: {op.command} {op.variant}: {op.error}", file=sys.stderr)
    result = {"correct": not session.check_failures, "attempted": len(session.ops),
              "failed": len(failed), "metrics": {}}
    if len(session.samples) < len(COMMANDS) * len(workload.parts):
        return result  # some command never succeeded: no figure to report for it
    last = start
    for phase, mark in marks.items():
        marks[phase], last = round(mark - last, 2), mark
    print(f"rounds {rounds}; phase seconds {json.dumps(marks)}; median seconds " + json.dumps(
        {k: round(v, 5) for k, v in session.breakdown().items()}))
    e2e = session.metrics()
    if tracer:
        print("traced end-to-end " + json.dumps({k: m["value"] for k, m in e2e.items()}))
        result["metrics"] = layer_metrics(tracer.spans, sum(p.steps for p in workload.parts))
        if tracer.absent:
            print("absent (metrics read 0): " + ", ".join(tracer.absent))
    else:
        result["metrics"] = e2e
    return result
