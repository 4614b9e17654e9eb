"""Reference computations the session checks the program against.

Each function re-derives a quantity the program reports, with code that
shares nothing with the program's own: a numpy log-softmax instead of the
tape's cross-entropy, a full-matrix edit distance instead of the two-row
one, ``hashlib`` over the checkpoint bytes, and a greedy loop over the
model's logits instead of the program's generator.
"""

from __future__ import annotations

import hashlib

import numpy as np


def read_corpus_ids(path, chars) -> np.ndarray:
    """Ids of a UTF-8 text file under a checkpoint's vocabulary ``chars``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    index = {ch: i for i, ch in enumerate(chars)}
    return np.array([index[ch] for ch in text], dtype=np.int64)


def split_test_ids(ids: np.ndarray, fraction: float) -> np.ndarray:
    """The final ``int(len * fraction)`` ids: the documented test split."""
    n_test = int(len(ids) * fraction)
    return ids[len(ids) - n_test:]


def ce_windows(test_ids: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and next-token targets of the non-overlapping (l+1)-id windows."""
    n = len(test_ids) // (l + 1)
    rows = test_ids[: n * (l + 1)].reshape(n, l + 1)
    return rows[:, :l], rows[:, 1:]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def window_ce(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean next-token negative log-likelihood of each window, in nats.

    ``logits`` is [windows, l, vocab] and ``targets`` is [windows, l].
    """
    logp = log_softmax(logits)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return -picked.mean(axis=-1)


def cer_wer_starts(n_test: int, l: int, n_windows: int, gen_chars: int) -> np.ndarray:
    """Start offsets of the evenly spaced CER/WER windows of ``qisa-lab eval``."""
    return np.unique(np.linspace(0, n_test - (l + gen_chars), n_windows).astype(int))


def greedy_continue(logits_fn, prompts: np.ndarray, n_chars: int, l: int) -> np.ndarray:
    """Greedy continuation: append the argmax of the last position, n_chars times.

    ``logits_fn`` maps ids [B, t] to logits [B, t, vocab].
    """
    seq = np.array(prompts, dtype=np.int64)
    for _ in range(n_chars):
        nxt = logits_fn(seq[:, -l:])[:, -1, :].argmax(axis=-1)
        seq = np.concatenate([seq, nxt[:, None]], axis=1)
    return seq[:, prompts.shape[1]:]


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance, filling the whole (|a|+1) x (|b|+1) table.

    Row i is built from row i-1 in two numpy steps: deletions and
    substitutions first, then the left-to-right chain of insertions as a
    running minimum of ``row[k] - k`` shifted back by ``j``.
    """
    a, b = list(a), list(b)
    cols = np.arange(len(b) + 1)
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    table[0] = cols
    for i, ca in enumerate(a, start=1):
        prev = table[i - 1]
        row = np.empty_like(prev)
        row[0] = i
        mismatch = np.fromiter((ca != cb for cb in b), dtype=np.int64, count=len(b))
        row[1:] = np.minimum(prev[1:] + 1, prev[:-1] + mismatch)
        table[i] = np.minimum.accumulate(row - cols) + cols
    return int(table[len(a), len(b)])


def cer_wer(refs: list[str], hyps: list[str]) -> tuple[float, float]:
    """Mean CER over all windows and mean WER over windows whose reference has a word."""
    cers = [edit_distance(r, h) / len(r) for r, h in zip(refs, hyps)]
    wers = [edit_distance(r.split(), h.split()) / len(r.split())
            for r, h in zip(refs, hyps) if r.split()]
    return float(np.mean(cers)), float(np.mean(wers))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
