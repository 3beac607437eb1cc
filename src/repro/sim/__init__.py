"""Discrete-event simulation substrate (kernel, resources, handshakes)."""

from .kernel import (
    AllOf,
    Event,
    Process,
    Simulator,
    SimulationError,
    Timeout,
)
from .resources import Gate, Resource, Store
from .handshake import HandshakeChannel, PipelineChain, PipelineStage
from .tracing import NULL_TRACER, NullTracer, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Event",
    "Gate",
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
