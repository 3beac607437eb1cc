"""Golden flit-hop fingerprints of every registry scenario at smoke
duration (observability off, the spec's own ``retain_packets``).

``SMOKE_FINGERPRINTS`` pins every cell on its *default* backend —
``mango`` for mesh cells, the fabric's own backend for ``ring``/
``hring``/``routerless`` cells (see
``repro.backends.DEFAULT_BACKEND_BY_TOPOLOGY``).  Regenerate after an
*intentional* workload change with::

    PYTHONPATH=src python -m repro scenario matrix --smoke --update-golden

``BACKEND_SMOKE_FINGERPRINTS`` pins the non-MANGO backends on two cheap
smoke cells each (see ``tests/backends/``); these are recorded by hand
from a verified run — ``--update-golden`` deliberately refuses to touch
them, because a non-MANGO digest change means a *backend model* change,
which deserves its own review.  Note that ``tdm`` (and ``priority`` on
uncongested cells) can legitimately share digests with ``mango``: the
fingerprint hashes *where* every flit went, and backends that route XY
with identical injection timing move the same flits over the same links
— only backends whose flow control shifts the shared pattern-RNG draw
order (``generic-vc``'s packet-granular injection) diverge.

The determinism tests assert these digests are reproduced bit-identically
across hosts, with full observability on (metrics, tracing, profiling),
and across ``retain_packets`` True/False — a changed digest means the
simulated work itself changed, which must be a deliberate, reviewed
event.
"""

from typing import Dict

__all__ = ["BACKEND_SMOKE_FINGERPRINTS", "SMOKE_FINGERPRINTS"]

#: Non-MANGO backends on the two conformance smoke cells
#: (backend -> scenario -> digest).  Hand-recorded; see module docstring.
BACKEND_SMOKE_FINGERPRINTS: Dict[str, Dict[str, str]] = {
    "generic-vc": {
        "be-uniform-4x4": "9be1b9c6afd0e281",
        "gs-cbr-4x4-uniform": "9b00f395db691a7a",
    },
    "tdm": {
        "be-uniform-4x4": "e638c3090fed3e4f",
        "gs-cbr-4x4-uniform": "86c9505519d7846f",
    },
    "priority": {
        "be-uniform-4x4": "e638c3090fed3e4f",
        "gs-cbr-4x4-uniform": "86c9505519d7846f",
    },
}

SMOKE_FINGERPRINTS: Dict[str, str] = {
    "be-bit-complement-4x4": "79198014b162c632",
    "be-bit-complement-8x8": "19f84ce8baa4ecaa",
    "be-hotspot-16x16": "de906872d9d529be",
    "be-hotspot-4x4": "d03ef122813a49c3",
    "be-hotspot-8x8": "39ced16bf96e407c",
    "be-local-uniform-16x16": "a9818b9676a8ae30",
    "be-nearest-neighbor-4x4": "d32801bd792babab",
    "be-nearest-neighbor-8x8": "9785b780887ed5ad",
    "be-transpose-16x16": "2ebbb3ba8bcbcad2",
    "be-transpose-4x4": "86d40988fa8dc557",
    "be-transpose-8x8": "ac362820e91db7fb",
    "be-uniform-16x16": "7d992f9f10bd32e6",
    "be-uniform-4x4": "e638c3090fed3e4f",
    "be-uniform-8x8": "7c32c91412e660a6",
    "chained-route-17x1": "32ae864a32c5819f",
    "corner-streams-6x6": "8e9c8ea7e97dbecb",
    "corner-streams-8x8": "4835b3f4b42da12e",
    "failure-malformed-config-2x2": "9da54ae5ffeab5ad",
    "failure-malformed-config-4x4-under-load": "3979ee5ddcce42f6",
    "failure-orphan-flit-4x4": "93b45f44073ef240",
    "gs-bursty-hotspot-4x4": "04932a36391d9098",
    "gs-bursty-video-8x8": "78c82031f66017a9",
    "gs-cbr-16x16-corners": "3e23cb34f372693a",
    "gs-cbr-16x16-local": "49fae44015bec464",
    "gs-cbr-4x4-uniform": "86c9505519d7846f",
    "gs-cbr-8x8-transpose": "0ae432f053b42f40",
    "gs-churn-8x8": "9b6ef5ae7566d08e",
    "gs-churn-saturated-16x16": "8b685eb3ebd39fc0",
    "gs-many-conns-6x6": "038b5f515e801148",
    "gs-under-saturation-4x4": "3ff53da446c382d3",
    "gs-under-saturation-8x8": "b11cebb20b835485",
    "gs-under-saturation-hotspot-8x8": "ccb22e42ea22448e",
    "hring-cbr-8x8": "2ec7178df5e74374",
    "ring-cbr-8x8": "19a6d05743fc0189",
    "ring-uni-cbr-4x4": "d743b7e10e8d854c",
    "routerless-cbr-8x8": "8d721927ca1f9212",
    "routerless-hotspot-4x4": "46343da65a896f11",
    "soak-ring-8x8": "002fa9c4b3eba4cd",
    "soak-uniform-8x8": "657fe69dbdafe11a",
}
