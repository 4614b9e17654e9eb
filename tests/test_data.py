import re

import numpy as np
import pytest

from qisa_lab.data import (
    BUNDLED_CORPUS,
    Vocab,
    batch_iter,
    build_vocab,
    load_corpus,
    split_dataset,
    steps_per_epoch,
)
from qisa_lab.errors import CorpusError


class TestLoadCorpus:
    def test_reads_text(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("abcab")
        assert load_corpus(f) == "abcab"

    def test_missing_file_mentions_download(self, tmp_path):
        with pytest.raises(CorpusError, match="download"):
            load_corpus(tmp_path / "missing.txt")

    def test_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(f)

    def test_non_utf8(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(CorpusError, match="UTF-8"):
            load_corpus(f)


class TestVocab:
    def test_sorted_ids(self):
        v = build_vocab("abcab")
        assert v.chars == ("a", "b", "c")
        np.testing.assert_array_equal(v.encode("abcab"), [0, 1, 2, 0, 1])

    def test_roundtrip(self):
        text = "To be, or not to be: that is the question.\n"
        v = build_vocab(text)
        assert v.decode(v.encode(text)) == text

    def test_out_of_vocab(self):
        v = build_vocab("abc")
        with pytest.raises(CorpusError, match="'z'"):
            v.encode("z")

    def test_empty_text(self):
        with pytest.raises(CorpusError):
            Vocab.from_text("")

    @pytest.mark.parametrize("char", ["a", "z", "\U0001f600", "\udcff"],
                             ids=["below", "above", "non-bmp", "lone-surrogate"])
    def test_unknown_character_named(self, char):
        v = build_vocab("bcd")
        with pytest.raises(CorpusError, match=re.escape(repr(char))):
            v.encode("bc" + char + "d?")  # the first unknown character is named

    def test_encode_empty(self):
        ids = build_vocab("abc").encode("")
        assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_bundled_corpus_roundtrip(self):
        text = load_corpus(BUNDLED_CORPUS)
        v = build_vocab(text)
        ids = v.encode(text)
        index = {ch: i for i, ch in enumerate(v.chars)}
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, [index[ch] for ch in text])
        assert v.decode(ids) == text

    @pytest.mark.parametrize("chars", [(), ("ab",), (5,)], ids=["empty", "two-letter", "not-a-string"])
    def test_malformed_vocabulary(self, chars):
        with pytest.raises(CorpusError, match="single characters"):
            Vocab(chars)


class TestSplit:
    def test_final_contiguous_fifth(self):
        ids = np.arange(100)
        ds = split_dataset(ids)
        assert len(ds.test_ids) == 20
        np.testing.assert_array_equal(ds.test_ids, np.arange(80, 100))
        np.testing.assert_array_equal(ds.train_ids, np.arange(80))

    def test_disjoint(self):
        ds = split_dataset(np.arange(103))
        assert len(ds.train_ids) + len(ds.test_ids) == 103
        assert set(ds.train_ids) & set(ds.test_ids) == set()


class TestBatchIter:
    def test_targets_shifted_in_batches(self):
        ids = np.arange(50)
        for inputs, targets in batch_iter(ids, l=4, batch=8, seed=0):
            np.testing.assert_array_equal(targets, inputs + 1)

    def test_deterministic(self):
        ids = np.arange(200)
        a = [x for x, _ in batch_iter(ids, l=8, batch=4, seed=5)]
        b = [x for x, _ in batch_iter(ids, l=8, batch=4, seed=5)]
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
        c = [x for x, _ in batch_iter(ids, l=8, batch=4, seed=6)]
        assert any(not np.array_equal(xa, xc) for xa, xc in zip(a, c))

    def test_epoch_step_count(self):
        assert steps_per_epoch(1000, 16, 32) == 31
        assert len(list(batch_iter(np.arange(1000), l=16, batch=32, seed=0))) == 31

    def test_too_small_corpus(self):
        with pytest.raises(CorpusError):
            list(batch_iter(np.arange(5), l=8, batch=2, seed=0))
        with pytest.raises(CorpusError):
            steps_per_epoch(8, 8, 2)

    def test_windows_stay_in_bounds(self):
        ids = np.arange(30)
        for inputs, targets in batch_iter(ids, l=4, batch=64, seed=1):
            assert inputs.max() <= 28 and targets.max() <= 29

    def test_train_windows_never_touch_test(self):
        ds = split_dataset(np.arange(100))
        for inputs, targets in batch_iter(ds.train_ids, l=8, batch=16, seed=2):
            assert targets.max() < 80
