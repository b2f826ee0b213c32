"""Hybrid architecture search space: genome encoding, expansion, op counting.

The space is a 7-stage inverted-residual-bottleneck (IRB) macro-architecture
with a conv stem and a wide 1x1 "MBPool" head. Each stage picks an output
channel count, an expansion ratio, a depthwise kernel size, a layer type
(conv / shift / adder) shared by all blocks of the stage, and a depth.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence


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
        if isinstance(code, int):
            return (cls.CONV, cls.SHIFT, cls.ADDER)[code]
        code = code.strip().lower()
        aliases = {"c": cls.CONV, "s": cls.SHIFT, "a": cls.ADDER}
        if code in aliases:
            return aliases[code]
        return cls(code)

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _choice_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    values = tuple(values)
    bad = [v for v in values if not (_is_int(v) and v > 0)]
    if bad:
        raise ValueError(f"{what}: choices must be integers > 0, got {bad[0]!r}")
    out = tuple(sorted(set(values)))
    if not out:
        raise ValueError(f"{what}: choice set must be non-empty")
    return out


@dataclass(frozen=True)
class StageSpec:
    """Choice sets for one stage; ``stride`` applies to the stage's first block."""

    channel_choices: tuple[int, ...]
    expansion_choices: tuple[int, ...]
    kernel_choices: tuple[int, ...]
    type_choices: tuple[LayerType, ...]
    depth_choices: tuple[int, ...]
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "channel_choices", _choice_tuple(self.channel_choices, "channels"))
        object.__setattr__(self, "expansion_choices", _choice_tuple(self.expansion_choices, "expansions"))
        object.__setattr__(self, "kernel_choices", _choice_tuple(self.kernel_choices, "kernels"))
        object.__setattr__(self, "depth_choices", _choice_tuple(self.depth_choices, "depths"))
        types = tuple(LayerType.from_code(t) for t in self.type_choices)
        if not types:
            raise ValueError("type_choices must be non-empty")
        object.__setattr__(self, "type_choices", types)
        if not set(self.kernel_choices) <= {3, 5}:
            raise ValueError(f"kernel choices must be within {{3, 5}}, got {self.kernel_choices}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")


# MobileNet-family downsampling pattern: stem stride 2, then stages 1..7.
DEFAULT_STAGE_STRIDES = (1, 2, 2, 2, 1, 2, 1)


@dataclass(frozen=True)
class SearchSpace:
    stages: tuple[StageSpec, ...]
    first_conv_channels: tuple[int, ...]
    mbpool_channels: tuple[int, ...]
    input_resolution: int = 32
    num_classes: int = 10
    stem_kernel: int = 3
    stem_stride: int = 2

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "first_conv_channels", _choice_tuple(self.first_conv_channels, "stem channels"))
        object.__setattr__(self, "mbpool_channels", _choice_tuple(self.mbpool_channels, "head channels"))
        if len(self.stages) != 7:
            raise ValueError(f"expected 7 stages, got {len(self.stages)}")
        for name in ("input_resolution", "num_classes", "stem_kernel", "stem_stride"):
            v = getattr(self, name)
            if not (_is_int(v) and v > 0):
                raise ValueError(f"{name} must be an integer > 0, got {v!r}")

    def to_dict(self) -> dict:
        return {
            "first_conv_channels": list(self.first_conv_channels),
            "mbpool_channels": list(self.mbpool_channels),
            "input_resolution": self.input_resolution,
            "num_classes": self.num_classes,
            "stem_kernel": self.stem_kernel,
            "stem_stride": self.stem_stride,
            "stages": [
                {
                    "channels": list(s.channel_choices),
                    "expansions": list(s.expansion_choices),
                    "kernels": list(s.kernel_choices),
                    "types": [t.short for t in s.type_choices],
                    "depths": list(s.depth_choices),
                    "stride": s.stride,
                }
                for s in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        stages = tuple(
            StageSpec(
                channel_choices=tuple(s["channels"]),
                expansion_choices=tuple(s["expansions"]),
                kernel_choices=tuple(s["kernels"]),
                type_choices=tuple(LayerType.from_code(t) for t in s["types"]),
                depth_choices=tuple(s["depths"]),
                stride=s.get("stride", 1),
            )
            for s in d["stages"]
        )
        return cls(
            stages=stages,
            first_conv_channels=tuple(d["first_conv_channels"]),
            mbpool_channels=tuple(d["mbpool_channels"]),
            input_resolution=d.get("input_resolution", 32),
            num_classes=d.get("num_classes", 10),
            stem_kernel=d.get("stem_kernel", 3),
            stem_stride=d.get("stem_stride", 2),
        )


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
        vals = [self.first_conv_c]
        for g in self.stages:
            vals.extend((g.c, g.e, g.k, g.t.index, g.n))
        vals.append(self.mbpool_c)
        return tuple(vals)

    @classmethod
    def from_flat(cls, vals: Sequence[int]) -> "SubNetwork":
        vals = [int(v) for v in vals]
        if len(vals) < 7:
            raise ValueError(f"flat genome too short: {len(vals)} values")
        n_stages = (len(vals) - 2) // 5
        if len(vals) != 2 + 5 * n_stages:
            raise ValueError(f"flat genome length {len(vals)} does not match 2 + 5*stages")
        stages = tuple(
            StageGene(
                c=vals[1 + 5 * i],
                e=vals[2 + 5 * i],
                k=vals[3 + 5 * i],
                t=LayerType.from_code(vals[4 + 5 * i]),
                n=vals[5 + 5 * i],
            )
            for i in range(n_stages)
        )
        return cls(first_conv_c=vals[0], stages=stages, mbpool_c=vals[-1])

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

    def to_dict(self) -> dict:
        return {
            "op_type": self.op_type.value,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "groups": self.groups,
            "in_h": self.in_h,
            "in_w": self.in_w,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerDescriptor":
        return cls(
            op_type=LayerType.from_code(d["op_type"]),
            in_channels=d["in_channels"],
            out_channels=d["out_channels"],
            kernel=d["kernel"],
            stride=d["stride"],
            groups=d.get("groups", 1),
            in_h=d["in_h"],
            in_w=d["in_w"],
        )


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
    if net.first_conv_c not in space.first_conv_channels:
        raise MembershipViolation(0, "first_conv", net.first_conv_c)
    if len(net.stages) != len(space.stages):
        raise MembershipViolation(0, "stage_count", len(net.stages))
    for i, (gene, spec) in enumerate(zip(net.stages, space.stages), start=1):
        if gene.c not in spec.channel_choices:
            raise MembershipViolation(i, "channels", gene.c)
        if gene.e not in spec.expansion_choices:
            raise MembershipViolation(i, "expansion", gene.e)
        if gene.k not in spec.kernel_choices:
            raise MembershipViolation(i, "kernel", gene.k)
        if gene.t not in spec.type_choices:
            raise MembershipViolation(i, "type", gene.t)
        if gene.n not in spec.depth_choices or gene.n < 1:
            raise MembershipViolation(i, "depth", gene.n)
    if net.mbpool_c not in space.mbpool_channels:
        raise MembershipViolation(8, "mbpool", net.mbpool_c)


def is_valid(space: SearchSpace, net: SubNetwork) -> bool:
    try:
        validate(space, net)
    except MembershipViolation:
        return False
    return True


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


def _assemble(space: SearchSpace, values: list) -> SubNetwork:
    stages = tuple(
        StageGene(*values[1 + 5 * i : 6 + 5 * i]) for i in range(len(space.stages))
    )
    return SubNetwork(first_conv_c=values[0], stages=stages, mbpool_c=values[-1])


def sample_random(space: SearchSpace, rng: random.Random) -> SubNetwork:
    values = [rng.choice(choices) for _, _, choices in _fields(space)]
    return _assemble(space, values)


def mutate(space: SearchSpace, net: SubNetwork, prob: float, rng: random.Random) -> SubNetwork:
    """Resample each field with probability ``prob``, excluding its current
    value whenever the choice set has an alternative."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"mutation probability must be in [0, 1], got {prob}")
    values = [net.first_conv_c]
    for g in net.stages:
        values.extend((g.c, g.e, g.k, g.t, g.n))
    values.append(net.mbpool_c)
    out = []
    for value, (_, _, choices) in zip(values, _fields(space)):
        if rng.random() < prob and len(choices) > 1:
            alternatives = [c for c in choices if c != value]
            value = rng.choice(alternatives)
        out.append(value)
    return _assemble(space, out)


def crossover(space: SearchSpace, a: SubNetwork, b: SubNetwork, rng: random.Random) -> SubNetwork:
    """Uniform crossover: each field inherited from either parent with prob 1/2."""
    av = [a.first_conv_c]
    bv = [b.first_conv_c]
    for g in a.stages:
        av.extend((g.c, g.e, g.k, g.t, g.n))
    for g in b.stages:
        bv.extend((g.c, g.e, g.k, g.t, g.n))
    av.append(a.mbpool_c)
    bv.append(b.mbpool_c)
    out = [x if rng.random() < 0.5 else y for x, y in zip(av, bv)]
    return _assemble(space, out)


def smallest_genome(space: SearchSpace) -> SubNetwork:
    values = [min(choices) if not isinstance(choices[0], LayerType) else choices[0]
              for _, _, choices in _fields(space)]
    return _assemble(space, values)


def largest_genome(space: SearchSpace) -> SubNetwork:
    values = [max(choices) if not isinstance(choices[0], LayerType) else choices[0]
              for _, _, choices in _fields(space)]
    return _assemble(space, values)
