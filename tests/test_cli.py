import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qisa_lab.cli import main, preset_config, write_loss_svg, write_rows_csv
from qisa_lab.errors import ConfigError
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.tensor import cross_entropy, graph_nodes


@pytest.fixture
def tiny_corpus(tmp_path):
    text = ("the rose by any other name would smell as sweet\n"
            "all the world is a stage and we are merely players\n") * 40
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    return path


@pytest.fixture
def tiny_config(tmp_path, tiny_corpus):
    cfg = {
        "model": {"variant": "qisa", "m": 4, "H": 1, "n_layers": 1, "l": 8, "p": 1, "seed": 0},
        "train": {"epochs": 1, "batch": 64, "lr": 3e-3, "eval_every": 0, "seed": 0},
        "data": {"corpus": str(tiny_corpus)},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_train(tmp_path, tiny_config, out_name="run"):
    out_dir = tmp_path / out_name
    rc = main(["train", "--config", str(tiny_config), "--out-dir", str(out_dir)])
    assert rc == 0
    return out_dir


def untimed_rows(out_dir):
    """The rows of a run's loss.csv, less the wall-clock step_s and tok_s rows."""
    with open(out_dir / "loss.csv") as fh:
        return [row for row in csv.reader(fh) if row[2] not in ("step_s", "tok_s")]


class TestPresets:
    def test_known_presets(self):
        cfg = preset_config("emb16-h1-qisa")
        assert cfg["model"]["m"] == 16
        assert cfg["model"]["H"] == 1
        assert cfg["model"]["variant"] == "qisa"
        assert cfg["model"]["n_layers"] == 6
        cfg = preset_config("emb16-h4-qsann_v2")
        assert cfg["model"]["H"] == 4

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("emb8-h2-qisa")


class TestTrainCommand:
    def test_writes_all_outputs(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        for name in ("checkpoint.json", "checkpoint.bin", "loss.csv", "loss.svg", "manifest.json"):
            assert (out_dir / name).exists(), name

    def test_manifest_outputs_exist(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for key, path in manifest["outputs"].items():
            assert Path(path).exists(), key
        assert "train_s" in manifest["timings"]
        assert manifest["config"]["model"]["variant"] == "qisa"

    def test_loss_csv_schema(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        with open(out_dir / "loss.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "split", "metric", "value"]
        for step, split, metric, value in rows[1:]:
            int(step)
            assert split in ("train", "test")
            float(value)
        step0 = [metric for step, split, metric, _ in rows[1:] if (step, split) == ("0", "train")]
        assert step0 == ["ce", "grad_norm", "step_s", "tok_s"]

    def test_deterministic_rerun(self, tmp_path, tiny_config):
        d1 = run_train(tmp_path, tiny_config, "a")
        d2 = run_train(tmp_path, tiny_config, "b")
        assert untimed_rows(d1) == untimed_rows(d2)
        assert (d1 / "checkpoint.bin").read_bytes() == (d2 / "checkpoint.bin").read_bytes()

    def test_rerun_from_manifest_config(self, tmp_path, tiny_config):
        d1 = run_train(tmp_path, tiny_config, "a")
        manifest = json.loads((d1 / "manifest.json").read_text())
        replay_cfg = tmp_path / "replay.json"
        cfg = manifest["config"]
        cfg["model"].pop("vocab_size")  # re-derived from the corpus
        replay_cfg.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(replay_cfg), "--out-dir", str(tmp_path / "c")])
        assert rc == 0
        assert untimed_rows(d1) == untimed_rows(tmp_path / "c")

    @pytest.mark.parametrize("fraction", [0, 0.001], ids=["zero", "shorter-than-a-window"])
    def test_split_without_a_test_window_refused_before_training(self, tmp_path, tiny_config, fraction,
                                                                 capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["data"]["split_fraction"] = fraction
        tiny_config.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["train", "--config", str(tiny_config), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "data.split_fraction" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_missing_variant_field(self, tmp_path, tiny_corpus):
        cfg = {"model": {"m": 4, "H": 1}, "data": {"corpus": str(tiny_corpus)}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_full_requires_real_corpus(self, tmp_path):
        rc = main(["train", "--preset", "emb16-h1-qisa", "--full",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_preset_runs_end_to_end(self, tmp_path, tiny_corpus):
        # the named preset path, on a small corpus so the test stays fast;
        # the bundled-corpus timing is exercised by the acceptance suite
        rc = main(["train", "--preset", "emb4-h1-qisa", "--corpus", str(tiny_corpus),
                   "--out-dir", str(tmp_path / "preset_run")])
        assert rc == 0
        assert (tmp_path / "preset_run" / "checkpoint.bin").exists()


class TestEvalCommand:
    def test_reports_all_three_metrics(self, tmp_path, tiny_config, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                   "--corpus", str(json.loads(tiny_config.read_text())["data"]["corpus"]),
                   "--windows", "3", "--gen-chars", "16",
                   "--out", str(tmp_path / "metrics.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "CE " in printed and "CER" in printed and "WER" in printed
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        for key in ("ce_mean", "ce_std", "cer_mean", "wer_mean"):
            assert key in metrics

    def test_no_word_in_any_reference_exits_2(self, tmp_path, tiny_config, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        corpus = tmp_path / "blank.txt"
        corpus.write_text("the rose" + " " * 400)  # its test split is all spaces
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"), "--corpus", str(corpus),
                   "--windows", "2", "--gen-chars", "4", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "WER" in err and "--windows" in err and "--gen-chars" in err
        assert not (tmp_path / "m.json").exists()

    def test_eval_uses_corpus_recorded_in_checkpoint(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                   "--windows", "2", "--gen-chars", "8", "--out", str(tmp_path / "m.json")])
        assert rc == 0
        assert (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("variant", ["qisa", "qsann", "qsann_v2"])
    def test_eval_with_cache_matches_plain_eval(self, tmp_path, tiny_config, variant):
        cfg = json.loads(tiny_config.read_text())
        cfg["model"]["variant"] = variant
        tiny_config.write_text(json.dumps(cfg))
        out_dir = run_train(tmp_path, tiny_config)
        cache_path = tmp_path / "obs.cache"
        assert main(["cache", "--checkpoint", str(out_dir / "checkpoint"),
                     "--out", str(cache_path)]) == 0
        reports = []
        for extra in ([], ["--cache", str(cache_path)]):
            out = tmp_path / f"m{len(extra)}.json"
            rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                       "--windows", "2", "--gen-chars", "8", "--out", str(out)] + extra)
            assert rc == 0
            report = json.loads(out.read_text())
            reports.append(report)
        plain, cached = reports
        assert (cached["ce_mean"], cached["ce_std"]) == pytest.approx(
            (plain["ce_mean"], plain["ce_std"]), abs=1e-10)
        for key in ("cer_mean", "cer_std", "wer_mean", "wer_std"):
            assert cached[key] == plain[key], key

    def test_cache_of_another_variant_exits_2(self, tmp_path, tiny_config, capsys):
        """A qsann_v1 checkpoint relabelled qsann_v2 keeps its parameter hash,
        so only the variant check keeps its v1 cache out."""
        cfg = json.loads(tiny_config.read_text())
        cfg["model"]["variant"] = "qsann_v1"
        tiny_config.write_text(json.dumps(cfg))
        out_dir = run_train(tmp_path, tiny_config)
        ckpt = out_dir / "checkpoint"
        assert main(["cache", "--checkpoint", str(ckpt), "--out", str(tmp_path / "v1.cache")]) == 0
        manifest = json.loads((out_dir / "checkpoint.json").read_text())
        manifest["config"]["variant"] = "qsann_v2"
        (out_dir / "checkpoint.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--cache", str(tmp_path / "v1.cache"),
                   "--windows", "2", "--gen-chars", "4", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "qsann_v1" in err and "qsann_v2" in err

    @pytest.mark.parametrize("variant,edit,named", [
        ("qsann", lambda entries: {key: {r: a[:1] for r, a in roles.items()} for key, roles in entries.items()},
         "layer 0, head 0, role 'key'"),
        ("qisa", lambda entries: {key: {**roles, "query": roles["value"], "key": roles["value"]}
                                  for key, roles in entries.items()},
         "layer 0, head 0, role 'key'"),
        ("qisa", lambda entries: {key: roles for key, roles in entries.items() if key != (1, 1)},
         "layer 1, head 1, role 'value'"),
        ("qisa", lambda entries: {**entries, (7, 3): entries[(0, 0)]}, "layer 7, head 3"),
    ], ids=["qsann-one-instance", "qisa-with-query-key", "qisa-missing-entry", "qisa-extra-entry"])
    def test_cache_that_does_not_fit_exits_2(self, tmp_path, tiny_config, variant, edit, named, capsys):
        """A cache file edited so that its entries no longer fit the model
        keeps its hash and variant; eval refuses it, naming the entry."""
        from dataclasses import replace
        from types import MappingProxyType

        from qisa_lab.qsim import load_cache, save_cache

        cfg = json.loads(tiny_config.read_text())
        cfg["model"].update(variant=variant, n_layers=2, H=2)
        tiny_config.write_text(json.dumps(cfg))
        ckpt = run_train(tmp_path, tiny_config) / "checkpoint"
        assert main(["cache", "--checkpoint", str(ckpt), "--out", str(tmp_path / "good.cache")]) == 0
        cache = load_cache(tmp_path / "good.cache")
        entries = edit(cache.evolved)
        save_cache(replace(cache, evolved=MappingProxyType(entries)), tmp_path / "edited.cache")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--cache", str(tmp_path / "edited.cache"),
                   "--windows", "2", "--gen-chars", "4", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--windows", "0"), ("--windows", "-1"),
                                            ("--gen-chars", "0"), ("--gen-chars", "-2")])
    def test_bad_counts(self, tmp_path, tiny_config, flag, value, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        args = {"--windows": "2", "--gen-chars": "4", flag: value}
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"), "--out", str(tmp_path / "m.json")]
                  + [a for kv in args.items() for a in kv])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()  # the early --out check leaves no file behind

    def test_eval_deterministic(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        corpus = json.loads(tiny_config.read_text())["data"]["corpus"]
        reports = []
        for name in ("m1.json", "m2.json"):
            rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"), "--corpus", corpus,
                       "--windows", "3", "--gen-chars", "12", "--out", str(tmp_path / name)])
            assert rc == 0
            report = json.loads((tmp_path / name).read_text())
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]


class TestBadCheckpoint:
    @pytest.mark.parametrize("corrupt", [
        lambda m: "{not json",
        lambda m: json.dumps([m]),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "config"}),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "parameters"}),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "parameter_hash"}),
        lambda m: json.dumps({**m, "config": {**m["config"], "extra_key": 1}}),
        lambda m: json.dumps({**m, "extra": 5}),
        lambda m: json.dumps({**m, "extra": {"data": 5}}),
        lambda m: json.dumps({**m, "config": {**m["config"], "dropout": "x"}}),
        lambda m: json.dumps({**m, "config": {**m["config"], "variant": 5}}),
        lambda m: json.dumps({**m, "config": {**m["config"], "m": True}}),
    ], ids=["not-json", "not-object", "no-config", "no-parameters", "no-hash", "unknown-config-key",
            "extra-not-object", "extra-data-not-object", "dropout-not-number", "variant-not-string",
            "bool-integer-field"])
    def test_eval_reports_a_typed_error(self, tmp_path, tiny_config, corrupt, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        manifest_path = out_dir / "checkpoint.json"
        manifest_path.write_text(corrupt(json.loads(manifest_path.read_text())))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"), "--windows", "2",
                   "--gen-chars", "4", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_generate_with_a_vocabulary_of_another_size_exits_2(self, tmp_path, capsys):
        from qisa_lab.model import LanguageModel, ModelConfig

        model = LanguageModel(ModelConfig(vocab_size=7, m=4, n_layers=1, l=8, variant="csa"))
        model.save(tmp_path / "ck", vocab_chars=["a", "b"])
        rc = main(["generate", "--checkpoint", str(tmp_path / "ck"), "--prompt", "ab", "--n-chars", "8"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "'vocab' must be a list of 7 characters" in err

    def test_manifest_errors_are_checkpoint_errors(self, tmp_path, tiny_config):
        from qisa_lab.errors import CheckpointError
        from qisa_lab.model import LanguageModel

        out_dir = run_train(tmp_path, tiny_config)
        manifest_path = out_dir / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        for text in ("{not json", json.dumps({k: v for k, v in manifest.items() if k != "parameters"})):
            manifest_path.write_text(text)
            with pytest.raises(CheckpointError):
                LanguageModel.load(out_dir / "checkpoint")


class TestBadConfig:
    """Malformed config input ends as exit code 2 with a message that names
    the file or the field."""

    @pytest.mark.parametrize("edit,named", [
        (lambda cfg: "{not json", "not JSON"),
        (None, "cannot read"),
        (lambda cfg: json.dumps([cfg]), "not a JSON object"),
        (lambda cfg: json.dumps({**cfg, "model": [1]}), "'model'"),
        (lambda cfg: json.dumps({**cfg, "train": 5}), "'train'"),
        (lambda cfg: json.dumps({**cfg, "data": []}), "'data'"),
        (lambda cfg: json.dumps({**cfg, "data": {"corpus": 5}}), "data.corpus"),
        (lambda cfg: json.dumps({**cfg, "data": {**cfg["data"], "split_fraction": "x"}}), "data.split_fraction"),
        (lambda cfg: json.dumps({**cfg, "data": {**cfg["data"], "split_fraction": 1}}), "data.split_fraction"),
        (lambda cfg: json.dumps({**cfg, "data": {**cfg["data"], "corpus_fraction": "x"}}),
         "data.corpus_fraction"),
        (lambda cfg: json.dumps({**cfg, "data": {**cfg["data"], "corpus_fraction": 0}}), "data.corpus_fraction"),
        (lambda cfg: json.dumps({**cfg, "data": {**cfg["data"], "corpus_fracton": 0.05}}),
         "unknown data config fields: ['corpus_fracton']"),
        (lambda cfg: json.dumps({**cfg, "train": {**cfg["train"], "epochs": "x"}}), "train.epochs"),
    ], ids=["not-json", "missing", "list", "model-list", "train-number", "data-list", "corpus-number",
            "split-fraction-string", "split-fraction-one", "corpus-fraction-string", "corpus-fraction-zero",
            "data-unknown-field", "epochs-string"])
    def test_train(self, tmp_path, tiny_config, edit, named, capsys):
        path = tmp_path / "edited.json"
        if edit is not None:
            path.write_text(edit(json.loads(tiny_config.read_text())))
        rc = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_eval_reads_the_checkpoint_data_section_alike(self, tmp_path, tiny_config, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        manifest_path = out_dir / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        data = manifest["extra"]["data"]
        for edit, named in (({"corpus_fraction": "x"}, "data.corpus_fraction"),
                            ({"corpus_fracton": 0.05}, "unknown data config fields: ['corpus_fracton']")):
            manifest["extra"]["data"] = {**data, **edit}
            manifest_path.write_text(json.dumps(manifest))
            capsys.readouterr()
            rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint"), "--windows", "2",
                       "--gen-chars", "4", "--out", str(tmp_path / "m.json")])
            assert rc == 2
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [(None, "cannot read"), ("[1, 2]", "not a JSON object"),
                                            ('{"model": {"m": "x"}}', "model.m")],
                             ids=["missing", "list", "m-string"])
    def test_params(self, tmp_path, text, named, capsys):
        path = tmp_path / "params.json"
        if text is not None:
            path.write_text(text)
        assert main(["params", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_params_reads_a_train_config(self, tiny_config, capsys):
        assert main(["params", "--config", str(tiny_config)]) == 0
        assert "m=4, H=1, p=1, l=8" in capsys.readouterr().out


def _config_file_edits():
    """Hypothesis strategy: a function that damages the text of a config
    file: it deletes a key, gives a value another type, or truncates it."""
    from hypothesis import strategies as st

    others = (None, True, 2, 0.5, "x", [1, 2], {})

    def keys(cfg):
        return [(cfg, name) for name in cfg] + [(cfg[name], key) for name in cfg
                                                 if isinstance(cfg[name], dict) for key in cfg[name]]

    def edit(index, choice, delete):
        def apply(text):
            cfg = json.loads(text)
            owner, key = keys(cfg)[index % len(keys(cfg))]
            if delete:
                del owner[key]
            else:
                kinds = [v for v in others if type(v) is not type(owner[key])]
                owner[key] = kinds[choice % len(kinds)]
            return json.dumps(cfg)
        return apply

    def truncate(cut):
        return lambda text: text[:cut % len(text)]

    return st.one_of(st.builds(edit, st.integers(0, 40), st.integers(0, 6), st.booleans()),
                     st.builds(truncate, st.integers(0, 2**12)))


def test_damaged_config_file_is_a_typed_error(tmp_path, tiny_corpus):
    from hypothesis import HealthCheck, given, settings

    good = json.dumps({
        "model": {"variant": "qisa", "m": 4, "H": 1, "n_layers": 1, "l": 8, "p": 1, "seed": 0},
        "train": {"epochs": 1, "batch": 64, "lr": 3e-3, "eval_every": 0, "seed": 0},
        # a fraction of the corpus keeps a run on the bundled corpus short
        "data": {"corpus": str(tiny_corpus), "corpus_fraction": 0.5, "split_fraction": 0.2},
    })
    path = tmp_path / "damaged.json"

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_config_file_edits())
    def check(damage):
        path.write_text(damage(good))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) in (0, 2)

    check()


def _cache_file_edits():
    """Hypothesis strategy: a function that damages the bytes of a cache file."""
    from hypothesis import strategies as st

    values = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=True),
                       st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3))

    def truncate(cut):
        return lambda data: data[:cut % len(data)]

    def flip(pos, bits):
        return lambda data: (data[:pos % len(data)] + bytes([data[pos % len(data)] ^ bits])
                             + data[pos % len(data) + 1:])

    def flip_blob(pos, bits):
        def apply(data):
            import struct

            (hlen,) = struct.unpack("<Q", data[4:12])
            return flip(12 + hlen + pos % (len(data) - 12 - hlen), bits)(data)
        return apply

    def edit_header(target, key_index, value, delete):
        def apply(data):
            import struct

            (hlen,) = struct.unpack("<Q", data[4:12])
            header = json.loads(data[12:12 + hlen])
            obj = header if target is None else header["entries"][target % len(header["entries"])]
            key = sorted(obj)[key_index % len(obj)]
            if delete:
                del obj[key]
            else:
                obj[key] = value
            raw = json.dumps(header).encode("utf-8")
            return data[:4] + struct.pack("<Q", len(raw)) + raw + data[12 + hlen:]
        return apply

    return st.one_of(
        st.builds(truncate, st.integers(0, 2**20)),
        st.builds(flip, st.integers(0, 2**20), st.integers(1, 255)),
        st.builds(flip_blob, st.integers(0, 2**20), st.integers(1, 255)),
        st.builds(edit_header, st.one_of(st.none(), st.integers(0, 50)), st.integers(0, 50), values,
                  st.booleans()),
    )


@pytest.fixture(scope="module")
def shared_cache_run(tmp_path_factory):
    """A trained qsann_v1 checkpoint (value, query and key roles) and its cache."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.txt"
    corpus.write_text("the rose by any other name would smell as sweet\n" * 40)
    cfg = {"model": {"variant": "qsann_v1", "m": 4, "H": 1, "n_layers": 1, "l": 8, "p": 1, "seed": 0},
           "train": {"epochs": 1, "batch": 64, "lr": 3e-3, "eval_every": 0, "seed": 0},
           "data": {"corpus": str(corpus)}}
    (root / "config.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "config.json"), "--out-dir", str(root / "run")]) == 0
    ckpt = root / "run" / "checkpoint"
    assert main(["cache", "--checkpoint", str(ckpt), "--out", str(root / "good.cache")]) == 0
    return root, ckpt, (root / "good.cache").read_bytes()


def test_damaged_cache_file_is_a_typed_error(shared_cache_run):
    from hypothesis import HealthCheck, given, settings

    from qisa_lab.errors import QisaLabError
    from qisa_lab.qsim import load_cache

    root, ckpt, good = shared_cache_run
    path = root / "damaged.cache"
    blob_start = 12 + int.from_bytes(good[4:12], "little")
    blob_flips = []

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cache_file_edits())
    def check(damage):
        damaged = damage(good)
        # an intact header over changed matrices: the blob_sha256 must refuse it
        blob_flipped = (len(damaged) == len(good) and damaged[:blob_start] == good[:blob_start]
                        and damaged != good)
        blob_flips.append(blob_flipped)
        path.write_bytes(damaged)
        try:
            load_cache(path)
            loaded = True
        except QisaLabError:
            loaded = False
        rc = main(["eval", "--checkpoint", str(ckpt), "--cache", str(path), "--windows", "2",
                   "--gen-chars", "4", "--out", str(root / "m.json")])
        assert rc in ((0, 2) if loaded and not blob_flipped else (2,))

    check()
    assert any(blob_flips)


def test_generate_flags_are_typed_errors(shared_cache_run, capsys):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    _, ckpt, _ = shared_cache_run

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(-2**70, 2**70), st.integers(-2**70, 6), st.floats(), st.sampled_from(["greedy", "sample"]))
    def check(seed, n_chars, temperature, mode):
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(ckpt), "--prompt", "the", f"--seed={seed}",
                   f"--n-chars={n_chars}", f"--temperature={temperature!r}", f"--mode={mode}"])
        out, err = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert out == "" and any(flag in err for flag in ("--seed", "--n-chars", "--temperature")), err

    check()


class TestGenerateCommand:
    def test_generates_text(self, tmp_path, tiny_config, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        capsys.readouterr()  # discard training output
        rc = main(["generate", "--checkpoint", str(out_dir / "checkpoint"),
                   "--prompt", "the rose", "--n-chars", "24"])
        assert rc == 0
        out = capsys.readouterr().out[:-1]  # drop only print's own newline
        assert out.startswith("the rose")
        assert len(out) == len("the rose") + 24

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_temperature(self, tmp_path, tiny_config, value, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(out_dir / "checkpoint"), "--prompt", "the",
                   "--n-chars", "4", "--mode", "sample", "--temperature", value])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "--temperature" in err

    def test_lone_surrogate_prompt(self, tmp_path, tiny_config, capsys):
        """An argv byte that is not UTF-8 arrives as a lone surrogate; it is an
        unknown character like any other."""
        out_dir = run_train(tmp_path, tiny_config)
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(out_dir / "checkpoint"), "--prompt", "\udcff",
                   "--n-chars", "4"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and repr("\udcff") in err and "vocabulary" in err

    def test_zero_temperature_allowed(self, tmp_path, tiny_config, capsys):
        out_dir = run_train(tmp_path, tiny_config)
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(out_dir / "checkpoint"), "--prompt", "the",
                   "--n-chars", "4", "--mode", "sample", "--temperature", "0"])
        assert rc == 0
        assert len(capsys.readouterr().out) == len("the") + 4 + 1


class TestParamsCommand:
    @pytest.mark.parametrize("flag", ["--l", "--p"])
    def test_bad_flag_prints_nothing(self, flag, capsys):
        """The specs are checked before the table header is printed."""
        rc = main(["params", "--m", "4", "--heads", "1", flag, "0"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "positive" in err

    def test_table_values(self, capsys):
        rc = main(["params", "--m", "16", "--heads", "1", "--p", "1", "--l", "16"])
        assert rc == 0
        lines = {l.split()[0]: l.split()[1:] for l in capsys.readouterr().out.splitlines()
                 if l and l.split()[0] in ("csa", "qisa", "qisa_a", "qsann", "qsann_v1", "qsann_v2")}
        assert lines["qsann"][0] == "576"
        assert lines["qsann_v1"][0] == "36"
        assert lines["qisa"][:3] == ["768", "256", "1024"]
        assert lines["csa"][:3] == ["768", "256", "1024"]

    def test_small_embedding(self, capsys):
        rc = main(["params", "--m", "4", "--heads", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        qisa_line = [l for l in out.splitlines() if l.startswith("qisa ")][0]
        assert qisa_line.split()[1] == "48"
        csa_line = [l for l in out.splitlines() if l.startswith("csa")][0]
        assert csa_line.split()[1] == "48"

    def test_introspection_matches_printed(self, capsys):
        from qisa_lab.model import LanguageModel, ModelConfig

        rc = main(["params", "--m", "4", "--heads", "1", "--p", "1", "--l", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("csa", "qisa", "qisa_a", "qsann", "qsann_v1", "qsann_v2"):
                model = LanguageModel(ModelConfig(vocab_size=5, m=4, H=1, n_layers=1, l=8,
                                                  variant=parts[0], p=1))
                assert model.blocks[0].attn.param_count() == int(parts[3]), parts[0]


class TestCacheCommand:
    def test_roundtrip(self, tmp_path, tiny_config):
        out_dir = run_train(tmp_path, tiny_config)
        cache_path = tmp_path / "obs.cache"
        rc = main(["cache", "--checkpoint", str(out_dir / "checkpoint"), "--out", str(cache_path)])
        assert rc == 0
        from qisa_lab.qsim import load_cache

        cache = load_cache(cache_path)
        assert cache.variant == "qisa"

    def test_csa_not_applicable(self, tmp_path, tiny_corpus):
        cfg = {"model": {"variant": "csa", "m": 4, "H": 1, "n_layers": 1, "l": 8, "seed": 0},
               "train": {"epochs": 1, "batch": 128, "eval_every": 0},
               "data": {"corpus": str(tiny_corpus)}}
        cfg_path = tiny_corpus.parent / "csa.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tiny_corpus.parent / "csa_run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        rc = main(["cache", "--checkpoint", str(out_dir / "checkpoint")])
        assert rc == 2


class TestBenchCommand:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        rc = main(["bench", "--variants", "csa,qisa", "--m", "4", "--layers", "1",
                   "--batch", "4", "--warmup", "1", "--steps", "2",
                   "--out-dir", str(tmp_path / "bench")])
        assert rc == 0
        printed = capsys.readouterr().out
        with open(tmp_path / "bench" / "bench.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "phase", "stat", "value"]
        seen = {(r[0], r[1]) for r in rows[1:]}
        assert {("csa", "train"), ("csa", "infer"), ("qisa", "train"),
                ("qisa", "infer"), ("qisa", "infer_cached")} <= seen
        for row in rows[1:]:
            float(row[3])
        # one graph_nodes row per variant: the tensors in one training loss's graph
        nodes = {r[0]: r[3] for r in rows[1:] if r[2] == "graph_nodes"}
        assert [r[1] for r in rows[1:] if r[2] == "graph_nodes"] == ["train", "train"]
        for variant in ("csa", "qisa"):
            model = LanguageModel(ModelConfig(vocab_size=59, m=4, n_layers=1, l=16, variant=variant))
            ids = np.zeros((4, 16), dtype=int)
            loss = cross_entropy(model.forward(ids, training=True).reshape(-1, 59), ids.reshape(-1))
            assert nodes[variant] == str(graph_nodes(loss))
            assert f"{variant:<10} {'train':<14} {nodes[variant]:>8} graph nodes" in printed

    @pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--warmup", "-1"), ("--batch", "0")])
    def test_bad_counts(self, tmp_path, flag, value, capsys):
        args = {"--steps": "1", "--warmup": "0", "--batch": "2", flag: value}
        rc = main(["bench", "--variants", "csa", "--m", "4", "--layers", "1",
                   "--out-dir", str(tmp_path / "bench")] + [a for kv in args.items() for a in kv])
        assert rc == 2
        assert f"{flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


class TestUnwritableOutput:
    """An output path beneath a regular file cannot be created: each
    command exits 2 and names the flag and the path."""

    @pytest.mark.parametrize("argv", [
        ["train", "--out-dir", "{bad}", "--config", "{config}"],
        ["bench", "--out-dir", "{bad}", "--variants", "csa", "--m", "4", "--layers", "1",
         "--batch", "2", "--warmup", "0", "--steps", "1"],
        ["eval", "--out", "{bad}", "--checkpoint", "{ckpt}", "--windows", "2", "--gen-chars", "4"],
        ["cache", "--out", "{bad}", "--checkpoint", "{ckpt}"],
    ], ids=["train", "bench", "eval", "cache"])
    def test_exits_2(self, tmp_path, tiny_config, argv, capsys):
        (tmp_path / "f").write_text("a regular file")
        paths = {"bad": tmp_path / "f" / "x", "config": tiny_config}
        if "{ckpt}" in argv:
            paths["ckpt"] = run_train(tmp_path, tiny_config) / "checkpoint"
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert argv[1] in err and str(paths["bad"]) in err
        assert not [line for line in out.splitlines() if line.startswith("CE")]  # refused before evaluating


class TestCorpusInfo:
    def test_prints_url_without_network(self, capsys):
        rc = main(["fetch-corpus-info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "http" in out
        assert "never downloads" in out


class TestThreadCap:
    def test_env_var_propagates_to_blas_pools(self):
        """QISA_LAB_THREADS=1 leaves a fresh process that imports the CLI and
        runs a GEMM with one thread: the BLAS pool was capped before it loaded."""
        import os
        import subprocess
        import sys

        if not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2:
            pytest.skip("needs /proc/self/task and at least 2 CPUs")
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
        env["QISA_LAB_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                             env.get("PYTHONPATH", "")])
        code = ("import os, qisa_lab.cli, numpy as np; a = np.ones((256, 256)); a @ a; "
                "print(len(os.listdir('/proc/self/task')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert int(out.stdout) == 1


class TestArtifacts:
    def test_svg_written(self, tmp_path):
        rows = [(0, "train", "ce", 4.0), (1, "train", "ce", 3.5), (0, "test", "ce", 4.1)]
        path = tmp_path / "loss.svg"
        write_loss_svg(rows, path)
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv([(0, "train", "ce", 1.0)], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["step", "split", "metric", "value"], ["0", "train", "ce", "1.0"]]
