"""Hybrid architecture search space: genome encoding, expansion, op counting.

The space is a 7-stage inverted-residual-bottleneck (IRB) macro-architecture
with a conv stem and a wide 1x1 "MBPool" head. Each stage picks an output
channel count, an expansion ratio, a depthwise kernel size, a layer type
(conv / shift / adder) shared by all blocks of the stage, and a depth.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Iterator, Sequence


class LayerType(str, Enum):
    CONV = "conv"
    SHIFT = "shift"
    ADDER = "adder"

    @property
    def short(self) -> str:
        return {"conv": "C", "shift": "S", "adder": "A"}[self.value]

    @classmethod
    def from_code(cls, code: "int | str | LayerType") -> "LayerType":
        if isinstance(code, LayerType):
            return code
        if not _is_type_code(code):
            raise ValueError(f"layer type must be {LAYER_TYPE.what}, got {code!r}")
        if isinstance(code, int):
            return (cls.CONV, cls.SHIFT, cls.ADDER)[code]
        code = code.strip().lower()
        return {"c": cls.CONV, "s": cls.SHIFT, "a": cls.ADDER}.get(code) or cls(code)

    @property
    def index(self) -> int:
        return (LayerType.CONV, LayerType.SHIFT, LayerType.ADDER).index(self)


class MembershipViolation(ValueError):
    """A genome field lies outside its choice set.

    ``stage`` is 0 for the stem, 1..7 for stages, 8 for the head.
    """

    def __init__(self, stage: int, field: str, value):
        self.stage = stage
        self.field = field
        self.value = value
        super().__init__(f"stage {stage}: {field}={value!r} not in choice set")


# ---------------------------------------------------------------------------
# Input kinds: what an input field accepts, checked by one function
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_type_code(v) -> bool:
    if isinstance(v, str):
        return v.strip().lower() in ("c", "s", "a", "conv", "shift", "adder")
    return _is_int(v) and 0 <= v <= 2


@dataclass(frozen=True)
class Kind:
    """The values one input field accepts. ``ok`` tests a value, ``what``
    names the accepted values in the error, ``norm`` maps an accepted value
    to the stored one, and ``item`` is the spec of each element of a list."""

    what: str
    ok: Callable[[Any], bool]
    norm: Callable[[Any], Any] = lambda v: v
    item: Any = None


def optional(kind: Kind) -> Kind:
    return Kind(f"{kind.what} or null", lambda v: v is None or kind.ok(v),
                lambda v: v if v is None else kind.norm(v))


def seq(item, size: int | None = None, min_size: int = 1, norm=list) -> Kind:
    """A JSON array (or tuple) of ``item`` values: exactly ``size`` of them
    when given, else at least ``min_size``."""
    what = f"a list of {size} values" if size else "a non-empty list" if min_size else "a list"
    return Kind(what, lambda v: isinstance(v, (list, tuple))
                and (len(v) == size if size else len(v) >= min_size), norm, item)


INT = Kind("an integer", _is_int)
POS_INT = Kind("an integer > 0", lambda v: _is_int(v) and v > 0)
NONNEG_INT = Kind("an integer >= 0", lambda v: _is_int(v) and v >= 0)
FINITE = Kind("a finite number", lambda v: _is_number(v) and math.isfinite(v))
POS_FINITE = Kind("a finite number > 0", lambda v: FINITE.ok(v) and v > 0)
PROBABILITY = Kind("a probability in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1)
LAYER_TYPE = Kind("0/1/2 or c/s/a/conv/shift/adder", _is_type_code,
                  lambda v: LayerType.from_code(v))
# Choice sets: sorted without repeats; layer types keep their given order.
CHOICES = seq(POS_INT, norm=lambda v: tuple(sorted(set(v))))
TYPE_CHOICES = seq(LAYER_TYPE, norm=tuple)


def check_value(value, spec, where: str):
    """``value`` held to ``spec`` and normalised, or ValueError naming the
    first place that fails. A spec is a Kind, or a dict {key: spec} for a
    JSON object that must hold those keys (the result keeps only them)."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected a JSON object")
        out = {}
        for key, sub in spec.items():
            if key not in value:
                raise ValueError(f"{where}: missing key {key!r}")
            out[key] = check_value(value[key], sub, f"{where}.{key}")
        return out
    if not spec.ok(value):
        raise ValueError(f"{where} must be {spec.what}, got {value!r}")
    if spec.item is not None:
        value = [check_value(v, spec.item, f"{where}[{i}]") for i, v in enumerate(value)]
    return spec.norm(value)


def declare(kind: Kind | None, default=MISSING, key: str | None = None):
    """A dataclass field held to ``kind`` by ``check_fields`` (``None``: not
    checked); ``key`` names it in JSON documents and errors where that
    differs from the field name."""
    return field(default=default, metadata={"kind": kind, "key": key})


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def check_fields(obj, prefix: str = "") -> None:
    """Hold every field of a dataclass declared with a kind to it, in field
    order, and store the normalised value; ValueError names the first that
    fails."""
    for f in fields(obj):
        if f.metadata.get("kind") is not None:
            value = check_value(getattr(obj, f.name), f.metadata["kind"], prefix + _key(f))
            object.__setattr__(obj, f.name, value)


def dump_fields(obj) -> dict:
    """Every field of a dataclass as a JSON object, in field order, under
    its key: a nested dataclass becomes an object, a tuple a list, a layer
    type its short code and any other enum its name."""
    return {_key(f): _jsonable(getattr(obj, f.name)) for f in fields(obj)}


def _jsonable(v):
    if is_dataclass(v):
        return dump_fields(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, LayerType):
        return v.short
    return v.name if isinstance(v, Enum) else v


def check_keys(d: dict, known, where: str) -> None:
    """ValueError naming the first key of ``d`` that ``known`` lacks."""
    unknown = [k for k in d if k not in known]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")


def load_fields(cls, d: dict, **given):
    """``cls`` from a JSON object under its declared keys: missing keys keep
    their defaults, an unknown key is a ValueError, ``given`` fields win."""
    keys = {_key(f): f.name for f in fields(cls)}
    check_keys(d, keys, cls.__name__)
    return cls(**{**{keys[k]: v for k, v in d.items()}, **given})


@dataclass(frozen=True)
class StageSpec:
    """Choice sets for one stage; ``stride`` applies to the stage's first block."""

    channel_choices: tuple[int, ...] = declare(CHOICES, key="channels")
    expansion_choices: tuple[int, ...] = declare(CHOICES, key="expansions")
    kernel_choices: tuple[int, ...] = declare(CHOICES, key="kernels")
    type_choices: tuple[LayerType, ...] = declare(TYPE_CHOICES, key="types")
    depth_choices: tuple[int, ...] = declare(CHOICES, key="depths")
    stride: int = declare(POS_INT, 1)

    def __post_init__(self):
        check_fields(self)
        if not set(self.kernel_choices) <= {3, 5}:
            raise ValueError(f"kernel choices must be within {{3, 5}}, got {self.kernel_choices}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")


# MobileNet-family downsampling pattern: stem stride 2, then stages 1..7.
DEFAULT_STAGE_STRIDES = (1, 2, 2, 2, 1, 2, 1)


@dataclass(frozen=True)
class SearchSpace:
    stages: tuple[StageSpec, ...]
    first_conv_channels: tuple[int, ...] = declare(CHOICES)
    mbpool_channels: tuple[int, ...] = declare(CHOICES)
    input_resolution: int = declare(POS_INT, 32)
    num_classes: int = declare(POS_INT, 10)
    stem_kernel: int = declare(POS_INT, 3)
    stem_stride: int = declare(POS_INT, 2)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) != 7:
            raise ValueError(f"expected 7 stages, got {len(self.stages)}")
        check_fields(self)

    def to_dict(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        stages = []
        for i, s in enumerate(d["stages"]):
            try:
                stages.append(load_fields(StageSpec, s))
            except ValueError as exc:
                raise ValueError(f"stages[{i}]: {exc}") from exc
        return load_fields(cls, d, stages=stages)


@dataclass(frozen=True)
class StageGene:
    c: int
    e: int
    k: int
    t: LayerType
    n: int


@dataclass(frozen=True)
class SubNetwork:
    """One genome: stem width, per-stage (c, e, k, t, n), head width."""

    first_conv_c: int
    stages: tuple[StageGene, ...]
    mbpool_c: int

    def to_flat(self) -> tuple[int, ...]:
        """Flat integer record (layer types encoded as 0=C, 1=S, 2=A)."""
        return tuple(v.index if isinstance(v, LayerType) else v for v in _values(self))

    @classmethod
    def from_flat(cls, vals: Sequence[int]) -> "SubNetwork":
        vals = [int(v) for v in vals]
        if len(vals) < 7:
            raise ValueError(f"flat genome too short: {len(vals)} values")
        if (len(vals) - 2) % 5:
            raise ValueError(f"flat genome length {len(vals)} does not match 2 + 5*stages")
        vals[4:-1:5] = [LayerType.from_code(v) for v in vals[4:-1:5]]
        return _assemble(vals)

    def digest(self) -> int:
        """Stable 64-bit identity for caching and per-candidate seeding."""
        raw = ",".join(str(v) for v in self.to_flat()).encode()
        return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")

    def compact(self) -> str:
        parts = [f"stem{self.first_conv_c}"]
        parts += [f"{g.t.short}{g.c}e{g.e}k{g.k}n{g.n}" for g in self.stages]
        parts.append(f"head{self.mbpool_c}")
        return "-".join(parts)


@dataclass(frozen=True)
class LayerDescriptor:
    op_type: LayerType
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    groups: int
    in_h: int
    in_w: int

    def __post_init__(self):
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("groups must divide both channel counts")

    @property
    def out_h(self) -> int:
        return -(-self.in_h // self.stride)

    @property
    def out_w(self) -> int:
        return -(-self.in_w // self.stride)

    @property
    def macs(self) -> int:
        return (self.out_channels * self.in_channels // self.groups) * self.kernel ** 2 * self.out_h * self.out_w

    @property
    def weight_count(self) -> int:
        return (self.out_channels * self.in_channels // self.groups) * self.kernel ** 2

    @classmethod
    def from_dict(cls, d: dict) -> "LayerDescriptor":
        """A layer from a JSON object (``groups`` defaults to 1, another key
        is an error). Its values are checked here, not in ``__post_init__``,
        which every layer that ``expand_blocks`` builds runs."""
        check_keys(d, _LAYER_KEYS, "layer")
        return cls(**check_value({"groups": 1, **d}, _LAYER_KEYS, "layer"))


_LAYER_KEYS = {"op_type": LAYER_TYPE, **dict.fromkeys(
    ("in_channels", "out_channels", "kernel", "stride", "groups", "in_h", "in_w"), POS_INT)}


@dataclass(frozen=True)
class BlockInfo:
    """One IRB: indices into the expanded layer list plus its residual width.

    ``residual_channels`` is 0 when the block has no skip path (stride != 1
    or a channel count change).
    """

    first_layer: int
    num_layers: int
    residual_channels: int


@dataclass(frozen=True)
class OpCounts:
    """Operation totals in millions."""

    mults: float
    shifts: float
    adds: float

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.mults + other.mults, self.shifts + other.shifts, self.adds + other.adds)

    @property
    def total(self) -> float:
        return self.mults + self.shifts + self.adds


@dataclass(frozen=True)
class MacProfile:
    """Raw multiply-accumulate work per layer type (not in millions)."""

    conv: int
    shift: int
    adder: int

    @property
    def total(self) -> int:
        return self.conv + self.shift + self.adder


def default_space(input_resolution: int = 32, num_classes: int = 10) -> SearchSpace:
    """The stock 7-stage hybrid space (stem 16/24 ... head 1792/1984)."""
    hybrid = (LayerType.CONV, LayerType.SHIFT, LayerType.ADDER)
    rows = [
        # channels,            expansions, depths
        ((16, 24), (1,), (1, 2)),
        ((24, 32), (4, 5, 6), (3, 4, 5)),
        ((32, 40), (4, 5, 6), (3, 4, 5, 6)),
        ((64, 72), (4, 5, 6), (3, 4, 5, 6)),
        ((112, 120, 128), (4, 5, 6), (3, 4, 5, 6, 7, 8)),
        ((192, 200, 208, 216), (6,), (3, 4, 5, 6, 7, 8)),
        ((216, 224), (6,), (1, 2)),
    ]
    stages = tuple(
        StageSpec(
            channel_choices=c,
            expansion_choices=e,
            kernel_choices=(3, 5),
            type_choices=hybrid,
            depth_choices=n,
            stride=DEFAULT_STAGE_STRIDES[i],
        )
        for i, (c, e, n) in enumerate(rows)
    )
    return SearchSpace(
        stages=stages,
        first_conv_channels=(16, 24),
        mbpool_channels=(1792, 1984),
        input_resolution=input_resolution,
        num_classes=num_classes,
    )


def validate(space: SearchSpace, net: SubNetwork) -> None:
    """Raise MembershipViolation at the first genome field outside its choice set."""
    if len(net.stages) != len(space.stages):
        raise MembershipViolation(0, "stage_count", len(net.stages))
    for value, (stage, name, choices) in zip(_values(net), _fields(space)):
        if value not in choices:
            raise MembershipViolation(stage, name, value)


def expand_blocks(space: SearchSpace, net: SubNetwork) -> tuple[list[LayerDescriptor], list[BlockInfo]]:
    """Expand a genome into concrete layers plus IRB block structure.

    Layout: stem conv, then per stage ``n`` IRBs (PW expand / DW / PW project;
    the expand PW is dropped when e == 1), then the head: a 1x1 conv to the
    MBPool width at the final feature resolution and a 1x1 classifier applied
    after global pooling. Stem and head are always conv typed.
    """
    validate(space, net)
    layers: list[LayerDescriptor] = []
    blocks: list[BlockInfo] = []
    h = w = space.input_resolution

    layers.append(
        LayerDescriptor(LayerType.CONV, 3, net.first_conv_c, space.stem_kernel,
                        space.stem_stride, 1, h, w)
    )
    h, w = layers[-1].out_h, layers[-1].out_w
    in_c = net.first_conv_c

    for gene, spec in zip(net.stages, space.stages):
        for j in range(gene.n):
            stride = spec.stride if j == 0 else 1
            mid = in_c * gene.e
            first = len(layers)
            if gene.e > 1:
                layers.append(LayerDescriptor(gene.t, in_c, mid, 1, 1, 1, h, w))
            layers.append(LayerDescriptor(gene.t, mid, mid, gene.k, stride, mid, h, w))
            dh, dw = layers[-1].out_h, layers[-1].out_w
            layers.append(LayerDescriptor(gene.t, mid, gene.c, 1, 1, 1, dh, dw))
            residual = in_c if (stride == 1 and in_c == gene.c) else 0
            blocks.append(BlockInfo(first, len(layers) - first, residual))
            h, w = dh, dw
            in_c = gene.c

    layers.append(LayerDescriptor(LayerType.CONV, in_c, net.mbpool_c, 1, 1, 1, h, w))
    # Classifier after global average pooling, counted as a 1x1 conv at 1x1.
    layers.append(LayerDescriptor(LayerType.CONV, net.mbpool_c, space.num_classes, 1, 1, 1, 1, 1))
    return layers, blocks


def expand(space: SearchSpace, net: SubNetwork) -> list[LayerDescriptor]:
    return expand_blocks(space, net)[0]


NUM_HEAD_LAYERS = 2


def count_macs(layers: Sequence[LayerDescriptor]) -> MacProfile:
    conv = shift = adder = 0
    for layer in layers:
        if layer.op_type is LayerType.CONV:
            conv += layer.macs
        elif layer.op_type is LayerType.SHIFT:
            shift += layer.macs
        else:
            adder += layer.macs
    return MacProfile(conv, shift, adder)


def ops_from_macs(conv_macs: float, shift_macs: float, adder_macs: float) -> OpCounts:
    """Fixed counting rule: conv MAC = mult+add, shift MAC = shift+add,
    adder MAC = 2 adds. Inputs are raw MACs, output is in millions."""
    return OpCounts(
        mults=conv_macs / 1e6,
        shifts=shift_macs / 1e6,
        adds=(conv_macs + shift_macs + 2 * adder_macs) / 1e6,
    )


def count_ops(layers: Sequence[LayerDescriptor]) -> OpCounts:
    macs = count_macs(layers)
    return ops_from_macs(macs.conv, macs.shift, macs.adder)


def _fields(space: SearchSpace) -> Iterator[tuple[int, str, tuple]]:
    """Genome fields in a fixed order: (stage, name, choice set)."""
    yield 0, "first_conv", space.first_conv_channels
    for i, spec in enumerate(space.stages, start=1):
        yield i, "channels", spec.channel_choices
        yield i, "expansion", spec.expansion_choices
        yield i, "kernel", spec.kernel_choices
        yield i, "type", spec.type_choices
        yield i, "depth", spec.depth_choices
    yield 8, "mbpool", space.mbpool_channels


def _values(net: SubNetwork) -> list:
    """Genome values in the order of ``_fields``."""
    values = [net.first_conv_c]
    for g in net.stages:
        values += (g.c, g.e, g.k, g.t, g.n)
    values.append(net.mbpool_c)
    return values


def _assemble(values: list) -> SubNetwork:
    """A genome from its values in the order of ``_fields``."""
    stages = tuple(StageGene(*values[i : i + 5]) for i in range(1, len(values) - 1, 5))
    return SubNetwork(first_conv_c=values[0], stages=stages, mbpool_c=values[-1])


def sample_random(space: SearchSpace, rng: random.Random) -> SubNetwork:
    values = [rng.choice(choices) for _, _, choices in _fields(space)]
    return _assemble(values)


def mutate(space: SearchSpace, net: SubNetwork, prob: float, rng: random.Random) -> SubNetwork:
    """Resample each field with probability ``prob``, excluding its current
    value whenever the choice set has an alternative."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"mutation probability must be in [0, 1], got {prob}")
    out = []
    for value, (_, _, choices) in zip(_values(net), _fields(space)):
        if rng.random() < prob and len(choices) > 1:
            alternatives = [c for c in choices if c != value]
            value = rng.choice(alternatives)
        out.append(value)
    return _assemble(out)


def crossover(space: SearchSpace, a: SubNetwork, b: SubNetwork, rng: random.Random) -> SubNetwork:
    """Uniform crossover: each field inherited from either parent with prob 1/2."""
    out = [x if rng.random() < 0.5 else y for x, y in zip(_values(a), _values(b))]
    return _assemble(out)


def largest_genome(space: SearchSpace) -> SubNetwork:
    values = [max(choices) if not isinstance(choices[0], LayerType) else choices[0]
              for _, _, choices in _fields(space)]
    return _assemble(values)
