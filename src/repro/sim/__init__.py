"""Discrete-event simulation substrate (kernel, resources, handshakes)."""

from .kernel import (
    AllOf,
    Event,
    Process,
    Simulator,
    SimulationError,
    Timeout,
)
from .resources import Resource, Store
from .handshake import HandshakeChannel, PipelineChain, PipelineStage
from .tracing import NULL_TRACER, NullTracer, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Event",
    "HandshakeChannel",
    "NULL_TRACER",
    "NullTracer",
    "PipelineChain",
    "PipelineStage",
    "Process",
    "Resource",
    "Simulator",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
