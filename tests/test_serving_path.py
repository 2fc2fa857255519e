"""What a server, router or worker process loads, and how it reads.

A momentum server needs numpy and nothing heavier: scipy is the hybrid
engine's signature recommender's dependency, imported where a signature
is computed.  A fresh interpreter checks that the whole serving path —
socket server on every wire, two-worker cluster — runs without loading
it, and that computing the signatures still does; fitting a visual
vocabulary loads neither ``scipy.cluster`` nor ``scipy.spatial``.
Every asyncio stream the middleware opens reads at most
``_READ_CHUNK`` per ``recv``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware.cluster import ThreadedClusterServer
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.net import _READ_CHUNK, SocketTransport
from repro.recommenders.momentum import MomentumRecommender

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

_SERVE_THEN_COMPUTE_SIGNATURES = """
import sys

import repro.middleware
import repro.middleware.cluster
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.middleware import BrowsingSession, SocketTransport, ThreadedSocketServer
from repro.middleware.cluster import ThreadedClusterServer
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender


CLUSTER_OR_SPATIAL = ("scipy.cluster", "scipy.spatial")


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def momentum_engine():
    model = MomentumRecommender()
    return PredictionEngine(
        pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def walk(address, steps=30, **client):
    with SocketTransport(*address, pyramid=pyramid, **client) as transport:
        session = BrowsingSession(transport.connect())
        session.start()
        for _ in range(steps):
            session.move(session.available_moves[-1])


pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=3).pyramid
config = ServiceConfig(prefetch=PrefetchPolicy(k=4, push="on"))
with ThreadedSocketServer(pyramid, config, engine_factory=momentum_engine) as server:
    walk(server.address, payload="json")
    walk(server.address, payload="binary")
    walk(server.address, payload="binary", push=True)
    assert server.server.push_scheduler.stats()["pushed_tiles"] > 0
with ThreadedClusterServer(
    pyramid, config, workers=2, engine_factory=momentum_engine
) as cluster:
    walk(cluster.address, payload="binary")
assert scipy_modules() == [], scipy_modules()[:8]

from repro.modis.dataset import NDSI_ATTRIBUTES
from repro.signatures.densesift import DenseSIFTSignature, extract_dense_descriptors
from repro.signatures.sift import SIFTSignature
from repro.signatures.stats import NormalSignature
from repro.signatures.visualwords import VisualVocabulary

tile = pyramid.fetch_tile(pyramid.grid.root)
attribute = NDSI_ATTRIBUTES[0]
_, descriptors = extract_dense_descriptors(tile.attribute(attribute), stride=4)
vocabulary = VisualVocabulary.fit(descriptors, num_words=4)
assert not [m for m in scipy_modules() if m.startswith(CLUSTER_OR_SPATIAL)]
NormalSignature().compute(tile, attribute)
DenseSIFTSignature(vocabulary).compute(tile, attribute)
SIFTSignature(vocabulary).compute(tile, attribute)
assert {"scipy.stats", "scipy.ndimage"} <= set(scipy_modules()), scipy_modules()
print("ok")
"""


def test_the_serving_path_runs_without_scipy_and_signatures_load_it():
    run = subprocess.run(
        [sys.executable, "-c", _SERVE_THEN_COMPUTE_SIGNATURES],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


_HYBRID_CONTEXT_THEN_PREDICT = """
import sys

from repro.experiments.context import ExperimentContext
from repro.experiments.runner import hybrid_factory

context = ExperimentContext.build(size=256, num_users=4)
engine = hybrid_factory(context)(context.study.traces)
for request in context.study.traces[0].requests[:10]:
    engine.observe(request.move, request.tile)
result = engine.predict(8)
assert "sb:sift" in {name for _, name in result.attributed_tiles()}
loaded = {name for name in sys.modules if name.split(".")[0] == "scipy"}
assert "scipy.ndimage" in loaded, sorted(loaded)
assert "scipy.stats" not in loaded, sorted(loaded)
assert not [n for n in loaded if n.startswith(("scipy.cluster", "scipy.spatial"))]
print("ok")
"""


def test_the_paper_engine_boots_and_predicts_without_scipy_stats_or_cluster():
    # NormalSignature's norm.cdf is the only user of scipy.stats, and the
    # hybrid engine ranks by SIFT: building the context (vocabulary
    # included) and a prediction that consults SIFT must not load it.
    # The vocabulary's k-means is numpy's: no scipy.cluster, and so no
    # scipy.spatial.
    run = subprocess.run(
        [sys.executable, "-c", _HYBRID_CONTEXT_THEN_PREDICT],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def test_every_asyncio_stream_reads_below_the_mmap_threshold(
    tiny_dataset, monkeypatch
):
    # glibc's default mmap threshold is 128 KiB: a larger recv buffer is
    # mapped and unmapped afresh on every read.
    assert _READ_CHUNK < 128 * 1024
    served: list[asyncio.StreamWriter] = []
    dialled: list[asyncio.StreamWriter] = []
    start_server, open_connection = asyncio.start_server, asyncio.open_connection

    async def recording_start_server(serve, *args, **kwargs):
        async def recorded(reader, writer):
            served.append(writer)
            await serve(reader, writer)

        return await start_server(recorded, *args, **kwargs)

    async def recording_open_connection(*args, **kwargs):
        reader, writer = await open_connection(*args, **kwargs)
        dialled.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "start_server", recording_start_server)
    monkeypatch.setattr(asyncio, "open_connection", recording_open_connection)

    pyramid = tiny_dataset.pyramid

    def momentum_engine():
        model = MomentumRecommender()
        return PredictionEngine(
            pyramid.grid, {model.name: model}, SingleModelStrategy(model.name)
        )


    config = ServiceConfig(prefetch=PrefetchPolicy(k=2))
    with ThreadedClusterServer(
        pyramid, config, workers=2, engine_factory=momentum_engine
    ) as cluster:
        with SocketTransport(*cluster.address, payload="binary") as transport:
            transport.connect().request(None, pyramid.grid.root)
        router_port = cluster.address[1]

    def port(writer, end):
        return writer.get_extra_info(end)[1]

    # The router's client side and every worker's ForeCacheSocketServer
    # connection; the router's backend links.
    assert {port(w, "sockname") == router_port for w in served} == {True, False}
    assert {port(w, "peername") == router_port for w in dialled} == {False}
    assert {w.transport.max_size for w in served + dialled} == {_READ_CHUNK}
