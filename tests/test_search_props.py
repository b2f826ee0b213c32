"""Property tests of the accelerator-search core on random small workloads:
every search variant returns a design that fits its budget with a minimal
buffer, or fails with ``InfeasibleBudget``; and the exhaustive oracle,
restricted to the PE counts the full search chose, picks the same design."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from chunknas.accel import HardwareBudget, InfeasibleBudget, min_gb_size
from chunknas.cosearch import oracle_layers, search_accelerator_layers
from chunknas.search_space import LayerDescriptor, LayerType
from test_cosearch import COEFFS

CHANNELS = (1, 2, 3, 4, 8, 16, 32)


@st.composite
def layer(draw) -> LayerDescriptor:
    kind = draw(st.sampled_from(list(LayerType)))
    cin = draw(st.sampled_from(CHANNELS))
    depthwise = draw(st.booleans())
    cout = cin if depthwise else draw(st.sampled_from(CHANNELS))
    size = draw(st.integers(1, 16))
    return LayerDescriptor(kind, cin, cout, draw(st.sampled_from((1, 3, 5, 7))),
                           draw(st.sampled_from((1, 2))), cin if depthwise else 1,
                           size, size)


workloads = st.lists(layer(), min_size=1, max_size=6)
budgets = st.builds(
    lambda dsp, lut, brams, bw: HardwareBudget(
        dsp_total=dsp, lut_total=lut, bram_bits_total=brams * 36864,
        dram_bandwidth=bw, dsp_reserve_frac=0.5, lut_overhead=500),
    st.integers(1, 64), st.integers(400, 12000), st.integers(1, 16),
    st.sampled_from((1.0, 4.0, 16.0)),
)


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@given(workloads, budgets)
def test_every_variant_fits_or_is_infeasible(layers, budget):
    for coarse_phase in (True, False):
        for fine_phase in (True, False):
            try:
                res = search_accelerator_layers(layers, budget, COEFFS,
                                                coarse_phase, fine_phase)
            except InfeasibleBudget:
                continue
            res.config.assert_fits(budget)
            assert res.config.gb_bytes == max(1, min_gb_size(res.config, layers, budget))


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@given(workloads, budgets)
def test_oracle_at_chosen_pe_counts_agrees(layers, budget):
    try:
        full = search_accelerator_layers(layers, budget, COEFFS)
    except InfeasibleBudget:
        return
    c, s, a = (chunk.pe_count for chunk in full.config.chunks())
    oracle = oracle_layers(layers, budget, COEFFS,
                           {"conv": [c], "shift": [s], "adder": [a]})
    assert oracle.config == full.config
