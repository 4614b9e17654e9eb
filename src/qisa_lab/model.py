"""GPT-1-style autoregressive transformer with pluggable attention.

Pre-LN residual blocks (x + Attn(LN(x)), x + MLP(LN(x))), learned token
and position embeddings, a final LN, and an untied language-model head.
The attention inside every block is one of the six variants from
:mod:`qisa_lab.attention`; everything else is shared.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import qsim
from .attention import AttentionSpec, AttentionWeights, Entry, attention_forward, causal_mask
from .errors import CacheMissError, CheckpointError, ConfigError, ContextOverflowError, ContractError
from .qsim import ObservableCache
from .tensor import Tensor, dropout, gather_rows, layer_norm, matmul, mlp, no_grad, pack, reshape

CHECKPOINT_FORMAT = 1


def is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    """Everything needed to rebuild a model (weights aside)."""

    vocab_size: int
    m: int = 16
    H: int = 1
    n_layers: int = 6
    l: int = 16
    variant: str = "csa"
    p: int = 1
    seed: int = 0
    dropout: float = 0.0
    v2_kernel: str = "dot"

    def __post_init__(self):
        for name in ("vocab_size", "m", "H", "n_layers", "l", "p", "seed"):
            val, low = getattr(self, name), 0 if name == "seed" else 1
            if not isinstance(val, int) or isinstance(val, bool) or val < low:
                raise ConfigError(f"model.{name} must be an integer >= {low}, got {val!r}")
        if not is_number(self.dropout) or not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.dropout must be a number in [0, 1), got {self.dropout!r}")
        # attention-level constraints (divisibility, power of two, kernel)
        self.variant = self.attention_spec().variant

    def attention_spec(self) -> AttentionSpec:
        return AttentionSpec(self.variant, m=self.m, H=self.H, l=self.l,
                             p=self.p, v2_kernel=self.v2_kernel)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if "variant" not in d:
            raise ConfigError("config is missing the required field 'model.variant'")
        if "vocab_size" not in d:
            raise ConfigError("config is missing the required field 'model.vocab_size'")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown model config fields: {sorted(unknown)}")
        return cls(**d)


class Block:
    """One transformer block: pre-LN attention and pre-LN MLP, residual."""

    def __init__(self, spec: AttentionSpec, rng: np.random.Generator):
        m = spec.m
        self.ln1_gain = Tensor(np.ones(m), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(m), requires_grad=True)
        self.attn = AttentionWeights(spec, rng)
        self.ln2_gain = Tensor(np.ones(m), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(m), requires_grad=True)
        hidden = 4 * m
        self.mlp_w1 = Tensor(rng.normal(0.0, 0.02, (m, hidden)), requires_grad=True)
        self.mlp_b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.mlp_w2 = Tensor(rng.normal(0.0, 0.02, (hidden, m)), requires_grad=True)
        self.mlp_b2 = Tensor(np.zeros(m), requires_grad=True)

    def forward(self, x: Tensor, mask: np.ndarray, coeffs: list[dict[str, Entry]] | None) -> Tensor:
        a = attention_forward(layer_norm(x, self.ln1_gain, self.ln1_bias), self.attn, mask, coeffs)
        x = x + a
        return x + mlp(x, self.ln2_gain, self.ln2_bias, self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2)

    def named_parameters(self, prefix: str):
        out = [(f"{prefix}.ln1.gain", self.ln1_gain), (f"{prefix}.ln1.bias", self.ln1_bias)]
        out += [(f"{prefix}.attn.{n}", t) for n, t in self.attn.named_parameters()]
        out += [(f"{prefix}.ln2.gain", self.ln2_gain), (f"{prefix}.ln2.bias", self.ln2_bias),
                (f"{prefix}.mlp.w1", self.mlp_w1), (f"{prefix}.mlp.b1", self.mlp_b1),
                (f"{prefix}.mlp.w2", self.mlp_w2), (f"{prefix}.mlp.b2", self.mlp_b2)]
        return out


class LanguageModel:
    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        m = config.m
        self.tok_emb = Tensor(rng.normal(0.0, 0.02, (config.vocab_size, m)), requires_grad=True)
        self.pos_emb = Tensor(rng.normal(0.0, 0.02, (config.l, m)), requires_grad=True)
        spec = config.attention_spec()
        self.blocks = [Block(spec, rng) for _ in range(config.n_layers)]
        self.lnf_gain = Tensor(np.ones(m), requires_grad=True)
        self.lnf_bias = Tensor(np.zeros(m), requires_grad=True)
        self.lm_head = Tensor(rng.normal(0.0, 0.02, (m, config.vocab_size)), requires_grad=True)
        self._dropout_rng = np.random.default_rng(config.seed + 1)

    # -- forward ------------------------------------------------------------

    def forward(self, ids, cache: ObservableCache | list | None = None, training: bool = False) -> Tensor:
        """Next-token logits for ids of shape [T] or [B, T].  ``cache`` is an
        observable cache, checked on this call, or a :meth:`coefficients`
        table; without either the table is built on this call, on the tape."""
        ids = np.asarray(ids)
        squeeze = ids.ndim == 1
        if squeeze:
            ids = ids[None]
        if ids.ndim != 2:
            raise ConfigError(f"token ids must be 1-d or 2-d, got shape {ids.shape}")
        b, t = ids.shape
        if t > self.config.l:
            raise ContextOverflowError(f"sequence length {t} exceeds context size {self.config.l}")
        if t < 1:
            raise ConfigError("empty token sequence")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ContractError(f"token id outside [0, {self.config.vocab_size})")
        table = cache if isinstance(cache, list) else self.coefficients(cache)

        m = self.config.m
        tok = reshape(gather_rows(self.tok_emb, ids.reshape(-1)), (b, t, m))
        pos = gather_rows(self.pos_emb, np.arange(t))
        x = tok + pos
        if training and self.config.dropout > 0:
            x = dropout(x, self.config.dropout, self._dropout_rng)
        mask = causal_mask(t)
        for block, coeffs in zip(self.blocks, table):
            x = block.forward(x, mask, coeffs)
        x = layer_norm(x, self.lnf_gain, self.lnf_bias)
        logits = matmul(x, self.lm_head)
        return reshape(logits, (t, self.config.vocab_size)) if squeeze else logits

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, block in enumerate(self.blocks):
            out += block.named_parameters(f"block{i}")
        out += [("ln_f.gain", self.lnf_gain), ("ln_f.bias", self.lnf_bias), ("lm_head", self.lm_head)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def total_param_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def parameter_blob(self) -> bytes:
        return b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                        for _, t in self.named_parameters())

    def parameter_hash(self) -> str:
        return qsim.params_hash(self.parameter_blob())

    # -- checkpointing --------------------------------------------------------

    def save(self, path, vocab_chars: list[str] | None = None, extra: dict | None = None) -> None:
        """Write ``<path>.json`` (manifest) and ``<path>.bin`` (parameters)."""
        path = str(path)
        blob = self.parameter_blob()
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": asdict(self.config),
            "parameters": [{"name": n, "shape": list(t.shape)} for n, t in self.named_parameters()],
            "parameter_hash": qsim.params_hash(blob),
            "vocab": vocab_chars,
        }
        if extra:
            manifest["extra"] = extra
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        with open(path + ".bin", "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(cls, path) -> tuple["LanguageModel", list[str] | None]:
        model, manifest = cls.read(path)
        return model, manifest.get("vocab")

    @classmethod
    def read(cls, path) -> tuple["LanguageModel", dict]:
        """The model of a checkpoint and its checked manifest."""
        path = str(path)
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError as exc:
            raise CheckpointError(f"checkpoint manifest {path}.json not found") from exc
        except ValueError as exc:  # also UnicodeDecodeError
            raise CheckpointError(f"checkpoint manifest {path}.json is not JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CheckpointError(f"checkpoint manifest {path}.json is not a JSON object")
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')}")
        missing = [key for key in ("config", "parameters", "parameter_hash") if key not in manifest]
        if missing:
            raise CheckpointError(f"checkpoint manifest {path}.json lacks {missing}")
        if not isinstance(manifest["config"], dict):
            raise CheckpointError("checkpoint config is not a JSON object")
        model = cls(ModelConfig.from_dict(manifest["config"]))
        vocab = manifest.get("vocab")
        if vocab is not None and (not isinstance(vocab, list) or len(vocab) != model.config.vocab_size):
            raise CheckpointError(f"checkpoint manifest {path}.json: 'vocab' must be a list of "
                                  f"{model.config.vocab_size} characters (config.vocab_size), "
                                  f"got {vocab!r:.60}")
        expected = [(n, tuple(t.shape)) for n, t in model.named_parameters()]
        try:
            listed = [(e["name"], tuple(e["shape"])) for e in manifest["parameters"]]
        except (KeyError, TypeError):
            listed = None
        if expected != listed:
            raise CheckpointError("checkpoint parameter layout does not match this configuration")
        try:
            with open(path + ".bin", "rb") as fh:
                blob = fh.read()
        except FileNotFoundError as exc:
            raise CheckpointError(f"checkpoint blob {path}.bin not found") from exc
        if qsim.params_hash(blob) != manifest["parameter_hash"]:
            raise CheckpointError("checkpoint blob does not match its recorded hash")
        flat = pack(model.parameters())
        if len(blob) != flat.nbytes:
            raise CheckpointError(f"checkpoint blob {path}.bin holds {len(blob)} bytes, "
                                  f"its parameter layout needs {flat.nbytes}")
        flat[:] = np.frombuffer(blob, dtype="<f8")
        return model, manifest

    # -- evolved-observable cache ---------------------------------------------

    def coefficients(self, cache: ObservableCache | None = None) -> list:
        """The coefficient table that ``forward`` takes: per layer, the heads'
        feature entries by role (None per layer for csa).  Without a cache
        it is built from the weights: on the tape, where the roles of
        ``attention.MAP_SOURCES`` hold their map stack and constant lifted
        stack and the others A [L, K, m, m], or under ``no_grad``, where
        every role holds A.  With a cache it holds the cache's frozen A,
        after one check of its variant, its parameter hash (qsann_v1 and
        qsann_v2 of one seed share parameters), that it holds no (layer,
        head) the model lacks, and each entry's roles and shapes."""
        if cache is None:
            return [block.attn.coefficients() for block in self.blocks]
        if cache.variant != self.config.variant:
            raise CacheMissError(f"cache was built for variant {cache.variant!r}, "
                                 f"this model is {self.config.variant!r}")
        if cache.built_from != self.parameter_hash():
            raise CacheMissError("cache is stale: parameters changed since it was built")
        layers, heads = self.config.n_layers, self.config.H
        extra = sorted(set(cache.evolved) - {(layer, head) for layer in range(layers) for head in range(heads)})
        if extra:
            raise CacheMissError(f"cache layer {extra[0][0]}, head {extra[0][1]} is not in this model "
                                 f"({layers} layers, {heads} heads)")
        need = self.blocks[0].attn.feature_shapes

        def frozen(layer, head):  # a missing entry holds nothing
            entry = cache.evolved.get((layer, head), {})
            for role in sorted(entry.keys() | need.keys()):
                have = entry[role].shape if role in entry else "nothing"
                if have != need.get(role, "nothing"):
                    raise CacheMissError(f"cache layer {layer}, head {head}, role {role!r} holds {have}, "
                                         f"this model needs {need.get(role, 'nothing')}")
            return {role: Tensor(a) for role, a in entry.items()}

        return [[frozen(layer, head) for head in range(heads)] for layer in range(layers)]

    def build_observable_cache(self) -> ObservableCache:
        """Freeze the coefficient table, built under ``no_grad``, into an observable cache."""
        if not self.blocks[0].attn.features:
            raise ConfigError("the classical variant has no observables to cache")
        with no_grad():
            table = self.coefficients()
        entries = {(layer, head): qsim.frozen_roles({role: a.data for role, a in coeffs.items()})
                   for layer, heads in enumerate(table) for head, coeffs in enumerate(heads)}
        return ObservableCache(variant=self.config.variant, built_from=self.parameter_hash(),
                               evolved=MappingProxyType(entries))
