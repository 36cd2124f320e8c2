"""ClusterSpec: one knob vocabulary, one validation site, one shim.

The four entry points — ``Machine``, ``Cluster``, ``sweep_nodes``,
``run_cluster`` (and the serving trace runner) — accept configuration
only as a ``spec=ClusterSpec(...)`` or as legacy keyword knobs routed
through the shared :meth:`ClusterSpec.from_kwargs` shim.  These tests
pin the contract: kwargs round-trip through a spec losslessly, every
entry point raises the *same* validation error for a bad knob, the
legacy path builds bit-identical machines to the spec path (values,
makespans, and full memory images), and a signature guard fails the
moment any entry point re-grows its own diverging knob parameter list.
"""

import inspect

import pytest
from memimage import memory_image

from repro import Cluster, ClusterSpec, Machine, sweep_nodes
from repro.bench import cluster_workloads as cw
from repro.cluster.serving import serve_trace

NODES = 4


# -- round trip & value semantics -------------------------------------------

def test_kwargs_spec_kwargs_round_trip():
    spec = ClusterSpec(ship_mode="demand", prefetch_depth=16,
                       topology="two_tier:2", placement="locality",
                       loss=0.01, compression=True, cpus_per_node=2)
    again = ClusterSpec.from_kwargs(**spec.to_kwargs())
    assert again == spec
    assert again.to_kwargs() == spec.to_kwargs()


def test_from_kwargs_passes_spec_through_unchanged():
    spec = ClusterSpec(ship_mode="demand")
    assert ClusterSpec.from_kwargs(spec=spec) is spec


def test_with_copies_and_revalidates():
    base = ClusterSpec(topology="two_tier:2")
    derived = base.with_(ship_mode="demand", compression=True)
    assert base.ship_mode == "delta" and not base.compression
    assert derived.topology == "two_tier:2"
    assert derived.ship_mode == "demand" and derived.compression
    with pytest.raises(ValueError, match="ship_mode"):
        base.with_(ship_mode="bogus")


def test_spec_is_frozen():
    with pytest.raises(Exception):
        ClusterSpec().ship_mode = "full"


# -- one validation site ----------------------------------------------------

@pytest.mark.parametrize("bad, match", [
    (dict(ship_mode="bogus"), "ship_mode"),
    (dict(prefetch_depth=-1), "prefetch_depth"),
    (dict(cpus_per_node=0), "cpus_per_node"),
    (dict(shard_workers=-1), "shard_workers"),
    (dict(cost=object()), "cost"),
])
def test_validation_is_centralized(bad, match):
    """Every entry point rejects a bad knob with ClusterSpec's message,
    whether it arrives as a legacy kwarg or inside a spec."""
    with pytest.raises(ValueError, match=match):
        ClusterSpec(**bad)
    for build in (lambda: Machine(nnodes=2, **bad),
                  lambda: Cluster(2, **bad),
                  lambda: sweep_nodes(cw.md5_tree_main, (1,), **bad),
                  lambda: cw.run_cluster(cw.md5_tree_main(3), 2, **bad),
                  lambda: serve_trace(2, requests=2, **bad)):
        with pytest.raises(ValueError, match=match):
            build()


def test_unknown_knob_raises_the_same_typeerror_everywhere():
    for build in (lambda: Machine(nnodes=2, ship_moed="delta"),
                  lambda: Cluster(2, ship_moed="delta"),
                  lambda: cw.run_cluster(cw.md5_tree_main(3), 2,
                                         ship_moed="delta"),
                  lambda: serve_trace(2, requests=2, ship_moed="delta")):
        with pytest.raises(TypeError, match="ship_moed"):
            build()


def test_spec_plus_legacy_knobs_is_refused():
    spec = ClusterSpec()
    with pytest.raises(TypeError, match="not both"):
        Machine(nnodes=2, spec=spec, ship_mode="demand")
    with pytest.raises(TypeError, match="ClusterSpec"):
        Machine(nnodes=2, spec={"ship_mode": "demand"})


# -- legacy kwargs are bit-identical to the spec path -----------------------

def test_legacy_kwargs_bit_identical_to_spec_md5():
    knobs = dict(topology="two_tier:2", placement="locality",
                 ship_mode="demand", prefetch_depth=8, compression=True)
    legacy_mk, legacy_m, legacy_v = cw.run_cluster(
        cw.md5_tree_main(3), NODES, **knobs)
    spec_mk, spec_m, spec_v = cw.run_cluster(
        cw.md5_tree_main(3), NODES, spec=ClusterSpec(**knobs))
    assert (legacy_mk, legacy_v) == (spec_mk, spec_v)
    assert memory_image(legacy_m.root) == memory_image(spec_m.root)


def test_legacy_kwargs_bit_identical_to_spec_matmult():
    knobs = dict(topology="two_tier:2", loss={"drop": 0.02, "seed": 2010})
    legacy_mk, legacy_m, legacy_v = cw.run_cluster(
        cw.matmult_tree_main(64), NODES, **knobs)
    spec_mk, spec_m, spec_v = cw.run_cluster(
        cw.matmult_tree_main(64), NODES, spec=ClusterSpec(**knobs))
    assert (legacy_mk, legacy_v) == (spec_mk, spec_v)
    assert memory_image(legacy_m.root) == memory_image(spec_m.root)


def test_cluster_legacy_matches_spec():
    legacy = Cluster(NODES, ship_mode="demand").run(
        cw.md5_tree_main(3), args=(NODES,))
    spec = Cluster(NODES, spec=ClusterSpec(ship_mode="demand")).run(
        cw.md5_tree_main(3), args=(NODES,))
    assert legacy.value == spec.value
    assert legacy.makespan() == spec.makespan()


def test_cpus_per_node_rides_the_spec():
    """The knob the old ``Cluster.run`` silently ignored: the spec
    carries it into the machine, and the result schedules against the
    same count the machine ran under."""
    result = Cluster(2, spec=ClusterSpec(cpus_per_node=2)).run(
        cw.md5_tree_main(3), args=(2,))
    assert result.machine.cpus_per_node == 2
    single = Cluster(2).run(cw.md5_tree_main(3), args=(2,))
    assert single.machine.cpus_per_node == 1
    assert result.value == single.value


# -- the signature guard ----------------------------------------------------

ENTRY_POINTS = [Machine.__init__, Cluster.__init__, sweep_nodes,
                cw.run_cluster, serve_trace]


@pytest.mark.parametrize("entry", ENTRY_POINTS,
                         ids=lambda f: f.__qualname__)
def test_entry_points_never_regrow_knob_parameters(entry):
    """The api_redesign ratchet: configuration knobs live on ClusterSpec
    only.  If any entry point re-grows an explicit ``ship_mode=`` /
    ``loss=`` / ... parameter, the four signatures start diverging again
    and this test fails naming the offender."""
    params = inspect.signature(entry).parameters
    assert "spec" in params, entry.__qualname__
    assert any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in params.values()), entry.__qualname__
    regrown = set(params) & set(ClusterSpec.knob_names())
    assert not regrown, (
        f"{entry.__qualname__} re-grew knob parameter(s) {sorted(regrown)}; "
        f"add fields to ClusterSpec instead")
