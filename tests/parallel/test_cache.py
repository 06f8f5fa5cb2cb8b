"""Property-based and unit tests for the result cache and its keys.

The cache key must be: collision-free over distinct (params, seed,
scale) tuples, insensitive to dict insertion order, and stable across
processes (no dependence on ``PYTHONHASHSEED`` or ``id()``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setups import Config
from repro.parallel import MISS, ResultCache, canonical, cell_key
from tests.parallel import cellfns

FIXED_CODE = "test-fingerprint"

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.sampled_from(list(Config)),
)
param_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.tuples(scalars, scalars),
)
param_dicts = st.dictionaries(
    st.sampled_from(["app", "vcpus", "spincount", "config", "seed", "work_scale", "x"]),
    param_values,
    max_size=5,
)


def key(params, experiment="exp"):
    return cell_key(experiment, cellfns.square, params, fingerprint=FIXED_CODE)


@given(param_dicts, param_dicts)
@settings(max_examples=200, deadline=None)
def test_distinct_params_never_collide(p1, p2):
    if canonical(p1) != canonical(p2):
        assert key(p1) != key(p2)
    else:
        assert key(p1) == key(p2)


@given(
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_seed_and_scale_always_distinguish(seed, scale):
    base = {"app": "cg", "seed": seed, "work_scale": scale}
    assert key(base) != key({**base, "seed": seed + 1})
    assert key(base) != key({**base, "work_scale": scale / 2})
    assert key(base, experiment="fig6") != key(base, experiment="fig9")


@given(param_dicts)
@settings(max_examples=100, deadline=None)
def test_key_ignores_dict_insertion_order(params):
    reordered = dict(reversed(list(params.items())))
    assert key(params) == key(reordered)


def test_enum_never_aliases_its_value_string():
    assert key({"config": Config.VANILLA}) != key({"config": Config.VANILLA.value})


def test_tuple_and_list_params_stay_distinct():
    assert canonical((1, 2)) != canonical([1, 2])
    assert key({"spins": (1, 2)}) != key({"spins": [1, 2]})


def test_key_follows_the_default_scheduler(monkeypatch):
    """A cell without an explicit scheduler runs on ``REPRO_SCHEDULER``'s
    pick, so the key must change with it; unset means ``credit``."""
    params = {"app": "cg", "seed": 3, "config": Config.VSCALE}
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    default = key(params)
    monkeypatch.setenv("REPRO_SCHEDULER", "credit")
    assert key(params) == default
    monkeypatch.setenv("REPRO_SCHEDULER", "cfs")
    assert key(params) != default


def test_key_stable_across_processes():
    """The key must not depend on per-process state like hash seeds."""
    params = {"app": "cg", "seed": 3, "work_scale": 0.25, "config": Config.VSCALE}
    local = key(params)
    snippet = (
        "from repro.experiments.setups import Config\n"
        "from repro.parallel import cell_key\n"
        "from tests.parallel import cellfns\n"
        "params = {'app': 'cg', 'seed': 3, 'work_scale': 0.25,"
        " 'config': Config.VSCALE}\n"
        f"print(cell_key('exp', cellfns.square, params, fingerprint={FIXED_CODE!r}))\n"
    )
    # The child inherits neither pytest's `pythonpath` patching nor the
    # repo root, so point it at whatever `repro` this process imported.
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    repo_root = str(Path(__file__).resolve().parents[2])
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, repo_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout.strip() == local


def test_canonical_is_json_stable():
    params = {"config": Config.VSCALE, "scales": (0.1, 0.2), "n": 10**15}
    blob = json.dumps(canonical(params), sort_keys=True)
    assert blob == json.dumps(canonical(dict(params)), sort_keys=True)


def test_cache_roundtrip_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ab" + "0" * 62, {"value": 1})
    cache.put("cd" + "0" * 62, [1, 2, 3])
    assert cache.get("ab" + "0" * 62) == {"value": 1}
    assert len(cache) == 2
    assert cache.size_bytes() > 0


def test_cache_miss_sentinel(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("ee" + "0" * 62) is MISS
    cache.put("ff" + "0" * 62, None)  # None is a real value, not a miss
    assert cache.get("ff" + "0" * 62) is None


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(5):
        cache.put(f"{i:02d}" + "0" * 62, i)
    assert cache.clear() == 5
    assert len(cache) == 0


def test_prune_by_entries_evicts_oldest(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [f"{i:02d}" + "0" * 62 for i in range(4)]
    for age, k in enumerate(keys):
        cache.put(k, age)
        # Backdate mtimes so eviction order is deterministic.
        path = cache._path(k)
        os.utime(path, (1000 + age, 1000 + age))
    assert cache.prune(max_entries=2) == 2
    assert cache.get(keys[0]) is MISS
    assert cache.get(keys[1]) is MISS
    assert cache.get(keys[2]) == 2
    assert cache.get(keys[3]) == 3


def test_prune_by_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
    for age, k in enumerate(keys):
        cache.put(k, "x" * 1000)
        os.utime(cache._path(k), (1000 + age, 1000 + age))
    entry_size = cache.size_bytes() // 3
    evicted = cache.prune(max_bytes=2 * entry_size)
    assert evicted == 1
    assert cache.get(keys[0]) is MISS
    assert len(cache) == 2


def test_prune_noop_within_limits(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("aa" + "0" * 62, 1)
    assert cache.prune(max_entries=10, max_bytes=10**9) == 0
    assert len(cache) == 1
