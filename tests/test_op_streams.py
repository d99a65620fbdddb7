"""Op-stream goldens: every application's full operation stream, pinned.

Each app is drained under the untimed :class:`LogicalExecutor` (its
round-robin schedule is deterministic), every process's ops are
collected, and one SHA-256 is taken over all processes in process order.
The pinned digests check the apps' address arithmetic directly, not
only through the run digests it feeds: a rewrite of how an app computes
its addresses must leave every op of every process unchanged.
"""

import hashlib

import pytest

from repro.analysis import OpListener, execute_program
from repro.apps.base import PrefetchMode
from repro.config import dash_scaled_config
from repro.experiments import SMOKE_PROCESSES, build_app

#: Processes per scale: smoke runs on the smoke machine, bench on the
#: full 16-node one.
PROCESSES = {"smoke": SMOKE_PROCESSES, "bench": 16}

#: Recorded before the apps hoisted their per-column and per-process
#: addresses out of the per-element path.
GOLDEN = {
    "MP3D/smoke/off": "feda033d6477799ca2b7af49fb325e343d8232ce3e253d8a028fc542b15b9ddb",
    "MP3D/smoke/full": "d1888d0faf2fbea1fb4e3d7b644535844a2a2c63360327bdf90c58d408345e93",
    "MP3D/smoke/remote_only": "afb05b4d71a64f3867b58964dc669ab6f4604719730d42303ae7198f263c9f76",
    "MP3D/bench/off": "3eeb96cea37ec28a2cdebb0be5449235980ce9212e0b1fc568af9a7b0f4ba8f9",
    "MP3D/bench/full": "402e907d421fcbaf5473e6379464d12c2cf07c0bef899cd98b6fb1b16d018b5c",
    "MP3D/bench/remote_only": "5716e1138d516ce1b563a507c39d1bf1efcda43acbf029e060c14d5bc1a50b56",
    "LU/smoke/off": "f641fbfd63e9843d454835a0290e820e6e7e39136883c98cb5e67d4189b4c8e2",
    "LU/smoke/full": "6e504929fa5eab1f35f34080509ab78c514d86b3430a43b0fac027379e1a0e65",
    "LU/smoke/remote_only": "0eff982d41060b661e20593290f7d7442f133b8c63e07bdeffbf52fad97f0565",
    "LU/bench/off": "341f07fe3d8b6337f5c215c501007518ba5207a0df5900eb3e3d12f5ae74411d",
    "LU/bench/full": "32b91c3fffae26f67b15b8c92bbdd352ecaa8aee4bb2e2225d2b50056c98c4f5",
    "LU/bench/remote_only": "04793bb291372d1b8b351c5162ae947c2c7a67585af327f041a4453792b71097",
    "PTHOR/smoke/off": "80931967170231be01e4236e8797174b4d0974dbac3a66df875ae945f438e6f3",
    "PTHOR/smoke/full": "e9dfb28891f567036bb521de3b2eaeae960ea52f79326539e9ba3ca26a0a4d08",
    "PTHOR/smoke/remote_only": "05be251a593a683c9ac556ca67c85889dc30c5f3f7c1f5c3dd196bc9055f8d9d",
    "PTHOR/bench/off": "021bc2f283bdabdc5fa4f1244d84c50202626d762b532894701735cb240e2dd6",
    "PTHOR/bench/full": "89eeeef88fed84d6fa4435c7ffa74e9d2a843a1ef558d4abcc6fc78a4d4a4092",
    "PTHOR/bench/remote_only": "55a7189ce7f954862457f1a300dd8a412a93ba8d845aa63a7486b4cc41a2f449",
}


class _Streams(OpListener):
    def __init__(self) -> None:
        self.ops: dict = {}

    def on_op(self, thread: int, index: int, op: tuple) -> None:
        self.ops.setdefault(thread, []).append(op)


def op_stream_digest(app: str, scale: str, mode: PrefetchMode) -> str:
    """SHA-256 of ``app``'s op streams at ``scale``, process 0 first."""
    processes = PROCESSES[scale]
    streams = _Streams()
    execute_program(
        build_app(app, scale, mode),
        processes,
        [streams],
        page_bytes=dash_scaled_config().page_bytes,
    )
    digest = hashlib.sha256()
    for thread in range(processes):
        for op in streams.ops.get(thread, ()):
            digest.update(repr(op).encode())
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_op_stream_matches_golden(key):
    app, scale, mode = key.split("/")
    assert op_stream_digest(app, scale, PrefetchMode(mode)) == GOLDEN[key]


def test_every_app_scale_and_mode_is_pinned():
    expected = {
        f"{app}/{scale}/{mode.value}"
        for app in ("MP3D", "LU", "PTHOR")
        for scale in PROCESSES
        for mode in PrefetchMode
    }
    assert set(GOLDEN) == expected
