import dataclasses
import hashlib
import json
import struct
from types import MappingProxyType

import numpy as np
import pytest

from qisa_lab.attention import VARIANTS
from qisa_lab.cli import main
from qisa_lab.errors import CheckpointError, ConfigError, ContextOverflowError, ContractError
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.qsim import load_cache
from qisa_lab.tensor import cross_entropy, no_grad


def tiny_config(variant="csa", **kw):
    defaults = dict(vocab_size=11, m=4, H=1, n_layers=2, l=8, variant=variant, p=1, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestConfig:
    def test_missing_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            ModelConfig.from_dict({"vocab_size": 10})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"vocab_size": 10, "variant": "csa", "heads": 2})

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="n_layers"):
            ModelConfig(vocab_size=10, n_layers=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, variant="qisa", m=12)  # not a power of two

    @pytest.mark.parametrize("field,value", [
        ("dropout", "x"), ("dropout", False), ("variant", 5), ("variant", None),
        ("m", True), ("seed", False), ("seed", -1), ("seed", "0"),
    ])
    def test_bad_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_dict({"vocab_size": 10, "variant": "csa", field: value})


class TestForward:
    def test_single_token_shape(self):
        model = LanguageModel(tiny_config())
        logits = model.forward(np.array([3]))
        assert logits.shape == (1, 11)
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logits_finite_all_variants(self, variant, rng):
        model = LanguageModel(tiny_config(variant=variant))
        ids = rng.integers(0, 11, size=(2, 8))
        with no_grad():
            logits = model.forward(ids)
        assert logits.shape == (2, 8, 11)
        assert np.isfinite(logits.data).all()

    def test_end_to_end_causality(self, rng):
        model = LanguageModel(tiny_config(l=8))
        ids1 = rng.integers(0, 11, size=8)
        ids2 = ids1.copy()
        ids2[5:] = rng.integers(0, 11, size=3)
        with no_grad():
            l1 = model.forward(ids1).data
            l2 = model.forward(ids2).data
        np.testing.assert_allclose(l1[:5], l2[:5], atol=1e-12)

    def test_untrained_ce_near_log_vocab(self, rng):
        model = LanguageModel(tiny_config(vocab_size=29))
        ids = rng.integers(0, 29, size=(8, 8))
        targets = rng.integers(0, 29, size=(8, 8))
        with no_grad():
            logits = model.forward(ids)
        ce = cross_entropy(logits.reshape(64, 29), targets.reshape(-1)).item()
        assert abs(ce - np.log(29)) / np.log(29) < 0.10

    def test_context_overflow(self):
        model = LanguageModel(tiny_config(l=4))
        with pytest.raises(ContextOverflowError):
            model.forward(np.zeros(5, dtype=int))

    def test_unknown_token(self):
        model = LanguageModel(tiny_config())
        with pytest.raises(ContractError):
            model.forward(np.array([11]))


class TestGradientsAndDeterminism:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_parameter_receives_gradient(self, variant, rng):
        model = LanguageModel(tiny_config(variant=variant, n_layers=1, l=4))
        ids = rng.integers(0, 11, size=(2, 4))
        targets = rng.integers(0, 11, size=(2, 4))
        logits = model.forward(ids, training=True)
        loss = cross_entropy(logits.reshape(8, 11), targets.reshape(-1))
        loss.backward()
        for name, t in model.named_parameters():
            assert t.grad is not None, f"{variant}: {name} has no gradient"

    def test_same_seed_same_logits(self, rng):
        ids = rng.integers(0, 11, size=(2, 8))
        runs = []
        for _ in range(2):
            model = LanguageModel(tiny_config(seed=7))
            with no_grad():
                runs.append(model.forward(ids).data)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_dropout_only_active_in_training(self, rng):
        model = LanguageModel(tiny_config(dropout=0.5))
        ids = rng.integers(0, 11, size=(2, 8))
        a = model.forward(ids, training=True).data
        b = model.forward(ids, training=True).data
        assert np.abs(a - b).max() > 1e-9  # fresh masks each call
        with no_grad():
            c = model.forward(ids).data
            d = model.forward(ids).data
        np.testing.assert_array_equal(c, d)


class TestParamCounts:
    def test_qisa_attention_sub_count(self):
        model = LanguageModel(ModelConfig(vocab_size=11, m=16, H=1, n_layers=1, l=16, variant="qisa"))
        assert model.blocks[0].attn.param_count() == 768 + 256

    def test_csa_matches_qisa(self):
        csa = LanguageModel(ModelConfig(vocab_size=11, m=16, H=1, n_layers=1, l=16, variant="csa"))
        assert csa.blocks[0].attn.param_count() == 1024

    def test_qsann_v1_sub_count(self):
        model = LanguageModel(ModelConfig(vocab_size=11, m=16, H=1, n_layers=1, l=16, variant="qsann_v1"))
        assert model.blocks[0].attn.param_count() == 36

    def test_total_includes_everything(self):
        cfg = tiny_config(n_layers=2)
        model = LanguageModel(cfg)
        m, v, l = cfg.m, cfg.vocab_size, cfg.l
        per_block = 2 * m + (3 * m * m + m * m) + 2 * m + (m * 4 * m + 4 * m + 4 * m * m + m)
        expected = v * m + l * m + 2 * per_block + 2 * m + m * v
        assert model.total_param_count() == expected


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        model = LanguageModel(tiny_config(variant="qisa"))
        ids = rng.integers(0, 11, size=(2, 8))
        with no_grad():
            before = model.forward(ids).data
        model.save(tmp_path / "ck", vocab_chars=list("abcdefghijk"))
        loaded, vocab = LanguageModel.load(tmp_path / "ck")
        assert vocab == list("abcdefghijk")
        with no_grad():
            after = loaded.forward(ids).data
        np.testing.assert_array_equal(before, after)
        assert loaded.parameter_hash() == model.parameter_hash()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            LanguageModel.load(tmp_path / "nope")

    def test_corrupted_blob(self, tmp_path):
        model = LanguageModel(tiny_config())
        model.save(tmp_path / "ck")
        blob = (tmp_path / "ck.bin").read_bytes()
        (tmp_path / "ck.bin").write_bytes(blob[:-8] + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            LanguageModel.load(tmp_path / "ck")

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b[:-3], lambda b: b + bytes(8)],
                             ids=["short", "not-a-multiple-of-8", "long"])
    def test_blob_of_another_length_with_its_own_hash(self, tmp_path, edit):
        model = LanguageModel(tiny_config())
        model.save(tmp_path / "ck")
        need = (tmp_path / "ck.bin").stat().st_size
        blob = edit((tmp_path / "ck.bin").read_bytes())
        (tmp_path / "ck.bin").write_bytes(blob)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["parameter_hash"] = hashlib.sha256(blob).hexdigest()
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"holds {len(blob)} bytes, .* needs {need}"):
            LanguageModel.read(tmp_path / "ck")


class TestObservableCacheIntegration:
    def test_csa_has_no_cache(self):
        model = LanguageModel(tiny_config(variant="csa"))
        with pytest.raises(ConfigError):
            model.build_observable_cache()

    @pytest.mark.parametrize("variant", ["qisa", "qisa_a", "qsann", "qsann_v1", "qsann_v2"])
    def test_cached_forward_matches_uncached(self, variant, rng):
        model = LanguageModel(tiny_config(variant=variant, n_layers=2, l=8))
        cache = model.build_observable_cache()
        for _ in range(5):
            ids = rng.integers(0, 11, size=(3, 8))
            with no_grad():
                direct = model.forward(ids).data
                cached = model.forward(ids, cache=cache).data
            assert np.abs(direct - cached).max() < 1e-10, variant

    @pytest.mark.parametrize("variant", ["qisa", "qisa_a", "qsann", "qsann_v1", "qsann_v2"])
    def test_qoc1_cache_file_refused_by_eval(self, variant, tmp_path, capsys):
        """A cache in the earlier QOC1 layout (complex128 matrices under a
        seven-key header) is refused before any evaluation: eval --cache
        exits 2 with a message that names the file and the cache command
        that rebuilds it."""
        text = "abcdefghij\n" * 40
        (tmp_path / "corpus.txt").write_text(text)
        model = LanguageModel(tiny_config(variant=variant, vocab_size=len(set(text))))
        model.save(tmp_path / "ck", vocab_chars=sorted(set(text)),
                   extra={"data": {"corpus": str(tmp_path / "corpus.txt")}})
        cache = model.build_observable_cache()
        entries, blobs = [], []
        for (layer, head), roles in sorted(cache.evolved.items()):
            for role in (r for r in ("value", "query", "key") if r in roles):
                inst, count, dim, _ = roles[role].shape
                entries.append({"layer": layer, "head": head, "role": role, "instances": inst,
                                "per_instance": count, "dim": dim})
                blobs.append(roles[role].astype("<c16").tobytes())
        words = [o.word for o in model.blocks[0].attn.value_obs]
        header = json.dumps({"kind": "congruence" if variant == "qisa" else "ansatz", "n": 2, "p": 1,
                             "variant": variant, "parameter_hash": cache.built_from, "observables": words,
                             "entries": entries, "blob_sha256": hashlib.sha256(b"".join(blobs)).hexdigest()})
        header = header.encode("utf-8")
        path = tmp_path / "old.cache"
        path.write_bytes(b"QOC1" + struct.pack("<Q", len(header)) + header + b"".join(blobs))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(tmp_path / "ck"), "--cache", str(path), "--windows", "1",
                   "--gen-chars", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert str(path) in err and "qisa-lab cache --checkpoint" in err
        with pytest.raises(ConfigError, match="QOC1"):
            load_cache(path)

    def test_stale_cache_rejected(self, rng):
        from qisa_lab.errors import CacheMissError

        model = LanguageModel(tiny_config(variant="qisa"))
        cache = model.build_observable_cache()
        model.blocks[0].attn.wv_tilde[0].data[0, 0] += 1.0
        with pytest.raises(CacheMissError):
            model.forward(np.array([1, 2, 3]), cache=cache)

    @pytest.mark.parametrize("variant,edit,role", [
        ("qsann", lambda roles: {r: a[:1] for r, a in roles.items()}, "key"),  # one instance, not l
        ("qisa", lambda roles: {**roles, "query": roles["value"], "key": roles["value"]}, "key"),
        ("qisa_a", lambda roles: {"value": roles["value"][:, :1]}, "value"),
        ("qsann_v2", lambda roles: {"value": roles["value"]}, "key"),
        ("qsann_v1", None, "key"),  # no entry at all
    ], ids=["qsann-one-instance", "qisa-with-query-key", "qisa_a-fewer-observables", "qsann_v2-no-query-key",
            "qsann_v1-missing-entry"])
    def test_cache_that_does_not_fit_rejected(self, variant, edit, role):
        """An entry whose roles or [L, K, m, m] shapes differ from what the
        weights build, or that is missing, is refused, naming its layer,
        head and role, even though its variant and parameter hash match."""
        from qisa_lab.errors import CacheMissError

        model = LanguageModel(tiny_config(variant=variant, m=8, H=2))
        cache = model.build_observable_cache()
        entries = dict(cache.evolved)
        roles = entries.pop((1, 1))
        if edit is not None:
            entries[(1, 1)] = edit(dict(roles))
        edited = dataclasses.replace(cache, evolved=MappingProxyType(entries))
        with pytest.raises(CacheMissError, match=f"layer 1, head 1, role '{role}'"):
            model.forward(np.array([1, 2, 3]), cache=edited)

    def test_cache_with_an_entry_the_model_lacks_rejected(self):
        from qisa_lab.errors import CacheMissError

        model = LanguageModel(tiny_config(variant="qisa", n_layers=2))
        cache = model.build_observable_cache()
        entries = {**cache.evolved, (7, 3): cache.evolved[(0, 0)]}
        extra = dataclasses.replace(cache, evolved=MappingProxyType(entries))
        with pytest.raises(CacheMissError, match="layer 7, head 3"):
            model.forward(np.array([1, 2, 3]), cache=extra)

    def test_cache_of_another_variant_rejected(self):
        """qsann_v1 and qsann_v2 of one seed have the same parameters, so
        only the cache's variant tells their caches apart."""
        from qisa_lab.errors import CacheMissError

        v1 = LanguageModel(tiny_config(variant="qsann_v1", seed=3))
        v2 = LanguageModel(tiny_config(variant="qsann_v2", seed=3))
        assert v1.parameter_hash() == v2.parameter_hash()
        with pytest.raises(CacheMissError, match="'qsann_v1'.*'qsann_v2'"):
            v2.forward(np.array([1, 2, 3]), cache=v1.build_observable_cache())
