"""The MANGO router: the paper's primary contribution."""

from .config import ARBITER_POLICIES, FLOW_CONTROL_SCHEMES, RouterConfig
from .connection_table import ConnectionTable, TableEntry, TableError
from .counters import ActivityCounters
from .link_arbiter import (
    AlgPolicy,
    ArbiterPolicy,
    FairSharePolicy,
    LinkArbiter,
    StaticPriorityPolicy,
    make_policy,
)
from .output_port import (
    BeTxChannel,
    LocalOutputPort,
    NetworkOutputPort,
    VcSlot,
)
from .programming import (
    CONFIG_MAGIC,
    OP_ACK,
    OP_SETUP,
    OP_TEARDOWN,
    ConfigCommand,
    ConfigFormatError,
    ProgrammingInterface,
    is_config_word,
    is_router_command,
    pack_command,
    unpack_command,
)
from .be_router import BeRouter
from .router import MangoRouter
from .switching import SwitchingModule, SwitchInventory
from .vc_control import VcControlModule

__all__ = [
    "ARBITER_POLICIES",
    "ActivityCounters",
    "AlgPolicy",
    "ArbiterPolicy",
    "BeRouter",
    "BeTxChannel",
    "CONFIG_MAGIC",
    "ConfigCommand",
    "ConfigFormatError",
    "ConnectionTable",
    "FLOW_CONTROL_SCHEMES",
    "FairSharePolicy",
    "LinkArbiter",
    "LocalOutputPort",
    "MangoRouter",
    "NetworkOutputPort",
    "OP_ACK",
    "OP_SETUP",
    "OP_TEARDOWN",
    "ProgrammingInterface",
    "RouterConfig",
    "StaticPriorityPolicy",
    "SwitchInventory",
    "SwitchingModule",
    "TableEntry",
    "TableError",
    "VcControlModule",
    "VcSlot",
    "is_config_word",
    "is_router_command",
    "make_policy",
    "pack_command",
    "unpack_command",
]
