"""Wireless network substrate: channel, MCS, base stations, multicast, resources.

The paper reserves *radio* resources for multicast transmission of short
videos.  The radio model here is a standard cellular downlink abstraction:

* :mod:`repro.net.channel` -- log-distance path loss, log-normal shadowing
  and Rayleigh fast fading producing per-user SNR time series (the
  "channel condition" UDT attribute).
* :mod:`repro.net.mcs` -- SNR to spectral-efficiency mapping (CQI/MCS
  table) with an optional implementation-loss factor.
* :mod:`repro.net.basestation` -- base stations with position, transmit
  power and a resource-block budget; :func:`associate_users`, the one
  strongest-mean-SNR association rule.
* :mod:`repro.net.multicast` -- multicast pricing: the worst-member
  spectral efficiency of a group and the conversion from group traffic to
  resource-block demand.
* :mod:`repro.net.resources` -- resource-block accounting / allocation.
* :mod:`repro.net.handover` -- hysteresis + time-to-trigger handover policy
  evaluated on batched mid-interval SNR samples.
* :mod:`repro.net.controller` -- the event-driven multi-cell RAN
  controller runtime (user association, per-cell state, scoped-id math,
  event bus).
* :mod:`repro.net.apps` -- pluggable controller apps over that runtime
  (A3 handover, cell scoping, budget rebalancing, weak-member demotion).
"""

from repro.net.channel import ChannelConfig, ChannelModel, snr_db_to_linear, snr_linear_to_db
from repro.net.mcs import MCS_TABLE, McsEntry, select_mcs, spectral_efficiency
from repro.net.basestation import BaseStation, BaseStationConfig, associate_users
from repro.net.handover import HandoverConfig, HandoverDecision, HandoverPolicy, StreakState
from repro.net.controller import (
    CellLoadEvent,
    CellState,
    ControllerConfig,
    GroupScopeEvent,
    HandoverEvent,
    RanController,
    cell_utilization,
)
from repro.net.apps import (
    AppEvent,
    ControllerApp,
    DEFAULT_APP_STACK,
    app_names,
    build_app_stack,
    create_app,
    register_app,
)
from repro.net.multicast import group_spectral_efficiency, resource_blocks_for_traffic
from repro.net.resources import ResourceGrid

__all__ = [
    "AppEvent",
    "BaseStation",
    "BaseStationConfig",
    "ControllerApp",
    "DEFAULT_APP_STACK",
    "app_names",
    "build_app_stack",
    "create_app",
    "register_app",
    "CellLoadEvent",
    "CellState",
    "ChannelConfig",
    "ChannelModel",
    "ControllerConfig",
    "GroupScopeEvent",
    "HandoverConfig",
    "HandoverDecision",
    "HandoverEvent",
    "HandoverPolicy",
    "RanController",
    "StreakState",
    "cell_utilization",
    "MCS_TABLE",
    "McsEntry",
    "ResourceGrid",
    "associate_users",
    "group_spectral_efficiency",
    "resource_blocks_for_traffic",
    "select_mcs",
    "snr_db_to_linear",
    "snr_linear_to_db",
    "spectral_efficiency",
]
