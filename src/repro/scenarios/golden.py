"""Golden flit-hop fingerprints of every registry scenario at smoke
duration, and of every non-soak scenario at full duration
(observability off, the spec's own ``retain_packets``).

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

``FULL_FINGERPRINTS`` pins the full-duration runs the paper's claims
rest on, for the 37 non-soak cells on their default backends (the soak
cells run for minutes; their smoke digests stand in).  They are recorded
by hand too, from ``scenario matrix --names <cells>`` without
``--smoke``; ``--update-golden`` only rewrites the smoke table, which
must stay the last statement of this file.

The fingerprints hash per-link flit counts, so they cannot see the
*order* in which the same work happened.  Three order-digest tables pin
that too: ``SMOKE_ORDER_DIGESTS`` (the registry cells at smoke),
``BACKEND_SMOKE_ORDER_DIGESTS`` (the same cells as
``BACKEND_SMOKE_FINGERPRINTS``) and ``FULL_ORDER_DIGESTS`` (the four GS
cells at full duration).  Each is the
:class:`~repro.obs.trace.OrderDigestSink` hash of the run's trace
records in emission order, recorded by hand; ``--update-golden`` does
not touch them.  "Same behaviour" means the same link counts *and* the
same event order: a changed fingerprint means different hops, a
changed order digest with the same fingerprint means the same hops in a
different order.

The determinism tests assert these digests are reproduced bit-identically
across hosts, with full observability on (metrics, tracing, profiling),
and across ``retain_packets`` True/False — a changed digest means the
simulated work itself changed, which must be a deliberate, reviewed
event.
"""

from typing import Dict

__all__ = ["BACKEND_SMOKE_FINGERPRINTS", "BACKEND_SMOKE_ORDER_DIGESTS",
           "FULL_FINGERPRINTS", "FULL_ORDER_DIGESTS", "SMOKE_FINGERPRINTS",
           "SMOKE_ORDER_DIGESTS"]

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

#: Every non-soak cell at *full* duration on its default backend
#: (scenario -> digest).  Hand-recorded; see module docstring.
FULL_FINGERPRINTS: Dict[str, str] = {
    "be-bit-complement-4x4": "2a3221c977c6c162",
    "be-bit-complement-8x8": "13ab729cebe53c71",
    "be-hotspot-16x16": "c062c72ad8be5222",
    "be-hotspot-4x4": "74b53ec12328485e",
    "be-hotspot-8x8": "86b9bfd70d59fbae",
    "be-local-uniform-16x16": "57e3496afe1d2064",
    "be-nearest-neighbor-4x4": "33c0ea08346521b3",
    "be-nearest-neighbor-8x8": "2713b8c89d2090ef",
    "be-transpose-16x16": "01356588178f53ea",
    "be-transpose-4x4": "a40d311ef7633e3d",
    "be-transpose-8x8": "57ac91732a22df33",
    "be-uniform-16x16": "d345f29c6b804a41",
    "be-uniform-4x4": "f96de2f7b1103d25",
    "be-uniform-8x8": "948951a895e82620",
    "chained-route-17x1": "e90ea5fcbcc7f1e2",
    "corner-streams-6x6": "2ebf9068cc6e7212",
    "corner-streams-8x8": "08d111307c129b6e",
    "failure-malformed-config-2x2": "37e600570ef41cf1",
    "failure-malformed-config-4x4-under-load": "4bb4d62417b67d3d",
    "failure-orphan-flit-4x4": "f701ed770adc5892",
    "gs-bursty-hotspot-4x4": "a54d4ac0fe380669",
    "gs-bursty-video-8x8": "c9b98a6edab871d5",
    "gs-cbr-16x16-corners": "15b92190c7956883",
    "gs-cbr-16x16-local": "dbe3979d9981a85a",
    "gs-cbr-4x4-uniform": "8d61bf71dff9ff24",
    "gs-cbr-8x8-transpose": "ff369998a127f806",
    "gs-churn-8x8": "8a2a67ba61d1587c",
    "gs-churn-saturated-16x16": "582b1a344300029d",
    "gs-many-conns-6x6": "9876df96adf7f385",
    "gs-under-saturation-4x4": "274d852a17d85881",
    "gs-under-saturation-8x8": "0f4fa540971b0d4a",
    "gs-under-saturation-hotspot-8x8": "f1157947285c3b69",
    "hring-cbr-8x8": "b453fe8e769d69ce",
    "ring-cbr-8x8": "b19b1aaa29de13ec",
    "ring-uni-cbr-4x4": "f69857233b85c56e",
    "routerless-cbr-8x8": "3c597a6c94fc9321",
    "routerless-hotspot-4x4": "ae7e7b0ad70f0b6d",
}

#: Trace-record order on the backend conformance cells (backend ->
#: scenario -> order digest).  Hand-recorded; see module docstring.
BACKEND_SMOKE_ORDER_DIGESTS: Dict[str, Dict[str, str]] = {
    "generic-vc": {
        "be-uniform-4x4": "d2657641de123202",
        "gs-cbr-4x4-uniform": "c5233e5ebf41032c",
    },
    "tdm": {
        "be-uniform-4x4": "da6b83408d81bf73",
        "gs-cbr-4x4-uniform": "7b8db2f8569aaea2",
    },
    "priority": {
        "be-uniform-4x4": "2561c789e786629a",
        "gs-cbr-4x4-uniform": "b5a6ed3ccc1b2f9d",
    },
}

#: Trace-record order of the GS cells at full duration on their default
#: backend (scenario -> order digest).  Hand-recorded.
FULL_ORDER_DIGESTS: Dict[str, str] = {
    "corner-streams-8x8": "ed44c746818fe0c4",
    "gs-cbr-4x4-uniform": "3fad2b45335dd659",
    "gs-churn-8x8": "5451f0d4bad0b6f5",
    "gs-under-saturation-8x8": "57c35bf474cef084",
}

#: Trace-record order of every registry cell at smoke on its default
#: backend (scenario -> order digest).  Hand-recorded.
SMOKE_ORDER_DIGESTS: Dict[str, str] = {
    "be-bit-complement-4x4": "dc6448ef38995ba8",
    "be-bit-complement-8x8": "72aa14fbdd1a9a34",
    "be-hotspot-16x16": "27ccb5ab4918e951",
    "be-hotspot-4x4": "acfd3305bfa1ae90",
    "be-hotspot-8x8": "64ea29220e86758c",
    "be-local-uniform-16x16": "8d9db7b0c4a29d30",
    "be-nearest-neighbor-4x4": "ad599cf290decc08",
    "be-nearest-neighbor-8x8": "1efc0c9866299e14",
    "be-transpose-16x16": "5506851a6d01b464",
    "be-transpose-4x4": "d142825c1ef222f0",
    "be-transpose-8x8": "a90881c56d7848a5",
    "be-uniform-16x16": "328be0d62e02ae2d",
    "be-uniform-4x4": "2561c789e786629a",
    "be-uniform-8x8": "cf735a16eed96a24",
    "chained-route-17x1": "6969ddd7c76f373a",
    "corner-streams-6x6": "c89198d78f1b7380",
    "corner-streams-8x8": "454877d821c3be4f",
    "failure-malformed-config-2x2": "0a24dd18c6f0decb",
    "failure-malformed-config-4x4-under-load": "39523d61e1b82d3d",
    "failure-orphan-flit-4x4": "2701e72d9ca1b417",
    "gs-bursty-hotspot-4x4": "519d58c4df14e2e6",
    "gs-bursty-video-8x8": "269f5d06c61e521d",
    "gs-cbr-16x16-corners": "7fceb4e1fd9be145",
    "gs-cbr-16x16-local": "8d0e01b524e36df6",
    "gs-cbr-4x4-uniform": "b5a6ed3ccc1b2f9d",
    "gs-cbr-8x8-transpose": "f0ee8bb82d5f5ec4",
    "gs-churn-8x8": "71bb357fa1e555ac",
    "gs-churn-saturated-16x16": "8da11bd9f4032d7f",
    "gs-many-conns-6x6": "bef65a78d7e8424a",
    "gs-under-saturation-4x4": "64ad538b77e7f202",
    "gs-under-saturation-8x8": "26443b48397b1c2e",
    "gs-under-saturation-hotspot-8x8": "438b0b36129cc311",
    "hring-cbr-8x8": "6ed1de7b347415e8",
    "ring-cbr-8x8": "235397966af04fab",
    "ring-uni-cbr-4x4": "4c8747318e2664f4",
    "routerless-cbr-8x8": "6e9efbe11a11fd8b",
    "routerless-hotspot-4x4": "b12032fc17701213",
    "soak-ring-8x8": "cd9e96e3671e282f",
    "soak-uniform-8x8": "4aa1bd1f4dbfffa1",
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
