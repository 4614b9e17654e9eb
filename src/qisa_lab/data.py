"""Corpus loading, character-level tokenization, splitting, batching."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CorpusError

log = logging.getLogger(__name__)

CORPUS_URL = "https://raw.githubusercontent.com/karpathy/char-rnn/master/data/tinyshakespeare/input.txt"
BUNDLED_CORPUS = Path(__file__).parent / "corpora" / "shakespeare_ci.txt"


def load_corpus(path) -> str:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:  # missing, a directory, or not readable
        raise CorpusError(f"cannot read corpus file {path} ({exc.strerror}); download a plain-text "
                          f"corpus (for example {CORPUS_URL}) or pass the bundled sample") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file {path} is not valid UTF-8: {exc}") from exc
    if not text:
        raise CorpusError(f"corpus file {path} is empty")
    log.info("loaded corpus %s (%d bytes, %d chars)", path, len(raw), len(text))
    return text


@dataclass(frozen=True)
class Vocab:
    """Bijection between characters and dense ids, sorted by codepoint."""

    chars: tuple[str, ...]

    def __post_init__(self):  # a checkpoint's vocabulary arrives here unchecked
        if not self.chars or not all(isinstance(ch, str) and len(ch) == 1 for ch in self.chars):
            raise CorpusError(f"a vocabulary is a non-empty sequence of single characters, got {self.chars!r}")

    @classmethod
    def from_text(cls, text: str) -> "Vocab":
        if not text:
            raise CorpusError("cannot build a vocabulary from empty text")
        return cls(tuple(sorted(set(text))))

    @property
    def size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        """int64 ids of the characters of ``text``, by a table indexed by
        codepoint; raises CorpusError naming the first unknown character."""
        # "surrogatepass" keeps a lone surrogate (from a command line that was
        # not valid UTF-8) as one codepoint, so that it is reported like any other
        codepoints = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        known = np.array([ord(ch) for ch in self.chars])
        top = known.max()
        table = np.full(top + 2, -1, np.int64)  # the last slot: every codepoint above the vocabulary
        table[known] = np.arange(len(known))
        ids = table[np.minimum(codepoints, top + 1)]
        unknown = np.flatnonzero(ids < 0)
        if unknown.size:
            raise CorpusError(f"character {text[unknown[0]]!r} is not in the vocabulary")
        return ids

    def decode(self, ids) -> str:
        return "".join(self.chars[int(i)] for i in ids)


def build_vocab(text: str) -> Vocab:
    return Vocab.from_text(text)


@dataclass(frozen=True)
class SplitDataset:
    """Contiguous split: the test ids are the final fraction of the corpus."""

    train_ids: np.ndarray
    test_ids: np.ndarray
    split_fraction: float = 0.2


def split_dataset(ids: np.ndarray, split_fraction: float = 0.2) -> SplitDataset:
    n_test = int(len(ids) * split_fraction)
    return SplitDataset(train_ids=ids[: len(ids) - n_test], test_ids=ids[len(ids) - n_test:],
                        split_fraction=split_fraction)


def steps_per_epoch(n_ids: int, l: int, batch: int) -> int:
    if n_ids <= l:
        raise CorpusError(f"corpus of {n_ids} ids is too small for context size {l}")
    return -(-(n_ids - l) // batch)  # ceil


def batch_iter(ids: np.ndarray, l: int, batch: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of randomly offset (inputs, next-token targets) windows.

    Yields ceil((len(ids) - l) / batch) batches; offsets are drawn from a
    generator seeded with ``seed`` so the sequence is reproducible.
    """
    n_steps = steps_per_epoch(len(ids), l, batch)
    rng = np.random.default_rng(seed)
    span = np.arange(l)
    for _ in range(n_steps):
        offsets = rng.integers(0, len(ids) - l, size=batch)
        idx = offsets[:, None] + span
        yield ids[idx], ids[idx + 1]
