"""A :class:`HopField` computes its hash once and keeps it; that cached
value must never travel to another process.

``bytes`` hashes are salted per process (``PYTHONHASHSEED``), and trial
pools spawn worker processes, so a hop field unpickled in a worker has
to hash like one built there, or a router's verified-hop memo would miss
(or, worse, mis-hit) on it.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap

import repro
from repro.scion.beacon import HopField

FIELDS = dict(ingress=3, egress=7, exp_time=63, mac=bytes(range(6)),
              chain=b"\xaa\xbb")

CHILD = textwrap.dedent("""
    import ast
    import pickle
    import sys
    from types import SimpleNamespace

    from repro.internet.router import AsRouter
    from repro.scion.beacon import HopField
    from repro.topology.isd_as import IsdAs

    carried = pickle.loads(bytes.fromhex(sys.argv[1]))
    fresh = HopField(**ast.literal_eval(sys.argv[2]))
    assert carried == fresh
    assert hash(carried) == hash(fresh), "cached hash crossed processes"
    router = AsRouter("br", IsdAs(1, 0x110), b"k" * 16, verify_macs=False)
    path = SimpleNamespace(timestamp=1_000)
    expiry = router._verify_hop(path, fresh)
    assert router._verified.get((path.timestamp, carried)) == expiry
    print(hash(b"salt-probe"))
""")


def test_hash_is_the_field_tuple_hash():
    hop = HopField(**FIELDS)
    assert hash(hop) == hash(tuple(FIELDS.values()))
    assert hash(hop) == hash(HopField(**FIELDS))
    assert hash(dataclasses.replace(hop, mac=b"forged")) == hash(
        HopField(**{**FIELDS, "mac": b"forged"}))


def test_cache_stays_out_of_eq_repr_and_serialize():
    hop = HopField(**FIELDS)
    assert [f.name for f in dataclasses.fields(HopField)] == list(FIELDS)
    assert "_hash" not in repr(hop)
    assert hop.serialize() == (f"hf(3;7;63;{bytes(range(6)).hex()};aabb)")
    assert dataclasses.asdict(hop) == FIELDS
    assert hop == HopField(**FIELDS)
    assert hop != HopField(**{**FIELDS, "exp_time": 64})


def test_unpickled_in_another_process_hashes_like_a_fresh_one():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    payload = pickle.dumps(HopField(**FIELDS)).hex()
    result = subprocess.run(
        [sys.executable, "-c", CHILD, payload, repr(FIELDS)],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    # The child really ran under a different salt than this process.
    assert int(result.stdout) != hash(b"salt-probe")
