"""The latency model's charge paths, declared once.

Every transaction charges occupancy on the queued resources along its
path; the queuing delay it meets there is added to its Table 1 base
latency.  This module declares each of those paths as data.  The
runtime executes them (``Interconnect.charge_path``) and the static
envelope analyzer (``repro.analysis.latbound``) prices the same
tuples, so the two cannot drift apart.

A *plan* is a tuple of *legs*; a leg is a tuple of ``(ChargeKind,
where, data)`` steps.  ``where`` names a node role -- ``req`` (the
requester), ``home``, ``owner`` or ``via`` -- or ``"src->dst"`` for a
network traversal between two roles, which waits on the source's
output link and then the destination's input link.  ``data`` says
whether the message carries a line (it sets bus and link occupancy).

* Inside a leg the steps are *chained*: each is requested when the
  step before it starts service.
* Every leg is requested at the transaction's own time, and the plan's
  delay is the sum of its legs' delays (*unchained*).  A fill is one
  leg; an eviction write-back to a remote home is three.

Roles a plan does not name are ignored.  An invalidation's sharer
takes the ``owner`` slot.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.config import ContentionConfig


class ChargeKind(enum.Enum):
    """The four queued-resource kinds a transaction can charge."""

    BUS = "bus"
    LINK = "link"
    DIRECTORY = "directory"
    MEMORY = "memory"


def occupancy_of(
    contention: ContentionConfig, kind: ChargeKind, data: bool
) -> int:
    """The occupancy one charge of ``kind`` holds its resource for."""
    if kind is ChargeKind.BUS:
        return (
            contention.bus_occupancy_data
            if data
            else contention.bus_occupancy_header
        )
    if kind is ChargeKind.LINK:
        return (
            contention.link_occupancy_data
            if data
            else contention.link_occupancy_header
        )
    if kind is ChargeKind.DIRECTORY:
        return contention.directory_occupancy
    return contention.memory_occupancy


def max_occupancy(contention: ContentionConfig, kind: ChargeKind) -> int:
    """The largest occupancy any single charge of ``kind`` can hold."""
    return max(
        occupancy_of(contention, kind, data=True),
        occupancy_of(contention, kind, data=False),
    )


def stations_per_charge(kind: ChargeKind) -> int:
    """How many distinct queued resources one charge of ``kind`` waits
    on: a traversal serializes through a source ``link_out`` *and* a
    destination ``link_in``; every other kind is a single resource."""
    return 2 if kind is ChargeKind.LINK else 1


Step = Tuple[ChargeKind, str, bool]
Plan = Tuple[Tuple[Step, ...], ...]

#: Node roles, in ``Interconnect.charge_path``'s argument order.
ROLES = ("req", "home", "owner", "via")

BUS, LINK = ChargeKind.BUS, ChargeKind.LINK
DIRECTORY, MEMORY = ChargeKind.DIRECTORY, ChargeKind.MEMORY
HDR, DATA = False, True

# -- demand fills and ownership (one chained leg) -------------------------

#: READ_MEMORY at the requester's own home.
FILL_LOCAL: Plan = (((BUS, "req", DATA), (MEMORY, "home", HDR)),)

#: Ownership from memory at the requester's own home.
OWN_LOCAL: Plan = (
    ((BUS, "req", DATA), (DIRECTORY, "home", HDR), (MEMORY, "home", HDR)),
)

#: Remote home memory round trip: a read fill, and (identical path) an
#: ownership acquire.
FILL_HOME: Plan = ((
    (BUS, "req", HDR), (LINK, "req->home", HDR), (DIRECTORY, "home", HDR),
    (MEMORY, "home", HDR), (LINK, "home->req", DATA), (BUS, "req", DATA),
),)
OWN_HOME = FILL_HOME

#: Read fill at the requester's own home, dirty at a remote owner.
FETCH_OWNER_LOCAL: Plan = ((
    (BUS, "req", HDR), (DIRECTORY, "home", HDR), (LINK, "req->owner", HDR),
    (BUS, "owner", DATA), (LINK, "owner->req", DATA),
),)

#: Owner fetch through one intermediate stop: the dirty copy in a
#: remote home's own cache (``via = owner = home``), read or write.
#: The write side with a local home and a remote owner binds
#: ``via = owner`` here too, so it charges the hop to the owner before
#: the requester's own directory, unlike ``FETCH_OWNER_LOCAL``; that
#: order is ROADMAP item 13.
FETCH_OWNER_VIA: Plan = ((
    (BUS, "req", HDR), (LINK, "req->via", HDR), (DIRECTORY, "home", HDR),
    (BUS, "owner", DATA), (LINK, "owner->req", DATA),
),)

#: Three-party owner fetch: requester -> home -> owner -> requester.
FETCH_OWNER_REMOTE: Plan = ((
    (BUS, "req", HDR), (LINK, "req->home", HDR), (DIRECTORY, "home", HDR),
    (LINK, "home->owner", HDR), (BUS, "owner", DATA),
    (LINK, "owner->req", DATA),
),)

# -- bandwidth the requester does not wait for (unchained legs) -----------

#: A dirty read miss refreshes home memory from the old owner.
SHARING_WRITEBACK: Plan = (
    ((LINK, "owner->home", DATA),), ((MEMORY, "home", DATA),),
)
#: The same refresh when the owner is the home.
SHARING_WRITEBACK_AT_HOME: Plan = (((MEMORY, "home", DATA),),)

#: Eviction write-back to a remote home (background chain).
WRITEBACK: Plan = (
    ((BUS, "req", DATA),), ((LINK, "req->home", DATA),),
    ((MEMORY, "home", DATA),),
)
#: Eviction write-back to the requester's own home.
WRITEBACK_LOCAL: Plan = (((BUS, "req", DATA),), ((MEMORY, "home", DATA),))

#: One sharer's invalidation and its acknowledgement to the requester;
#: the sharer takes the owner slot.
INVALIDATION: Plan = (
    ((LINK, "home->owner", HDR),), ((LINK, "owner->req", HDR),),
)

# -- uncached accesses and synchronization (one chained leg) --------------

#: An uncached read or write at the requester's own home: the fill's
#: path, minus the fill overhead in the base.
UNCACHED_LOCAL = FILL_LOCAL
UNCACHED_READ_REMOTE: Plan = ((
    (BUS, "req", HDR), (LINK, "req->home", HDR), (MEMORY, "home", HDR),
    (LINK, "home->req", DATA),
),)
UNCACHED_WRITE_REMOTE: Plan = ((
    (BUS, "req", DATA), (LINK, "req->home", DATA), (MEMORY, "home", HDR),
),)

#: Lock probe (read-modify-write) at the primitive's home.
SYNC_RMW_LOCAL: Plan = (((BUS, "req", HDR), (MEMORY, "home", HDR)),)
SYNC_RMW_HOME: Plan = ((
    (BUS, "req", HDR), (LINK, "req->home", HDR), (MEMORY, "home", HDR),
    (LINK, "home->req", HDR),
),)
#: Release write to the primitive's home.
SYNC_RELEASE_LOCAL: Plan = (((BUS, "req", HDR),),)
SYNC_RELEASE_HOME: Plan = (((BUS, "req", HDR), (LINK, "req->home", HDR)),)
#: Wake-up message from the primitive's home to a blocked waiter (the
#: waiter is the requester).
SYNC_NOTIFY: Plan = (((LINK, "home->req", HDR),),)

# -- fault layer ----------------------------------------------------------

#: A NACKed request's round trip: header out, a directory pass to bounce
#: it, header back.
NACK_LOCAL: Plan = (((BUS, "req", HDR), (DIRECTORY, "home", HDR)),)
NACK_REMOTE: Plan = ((
    (BUS, "req", HDR), (LINK, "req->home", HDR), (DIRECTORY, "home", HDR),
    (LINK, "home->req", HDR),
),)
#: A dropped request's dead header (background chain).
DROP_LOCAL: Plan = (((BUS, "req", HDR),),)
DROP_REMOTE: Plan = (((BUS, "req", HDR),), ((LINK, "req->home", HDR),))
#: A redundantly delivered response from the home (background chain).
DUPLICATE_LOCAL: Plan = (((BUS, "home", DATA),),)
DUPLICATE_REMOTE: Plan = (
    ((BUS, "home", DATA),), ((LINK, "home->req", DATA),),
)

#: Every declared plan by name.  ``Interconnect.charge_path`` runs only
#: these.
PLANS: Dict[str, Plan] = {
    "FILL_LOCAL": FILL_LOCAL,
    "OWN_LOCAL": OWN_LOCAL,
    "FILL_HOME": FILL_HOME,
    "FETCH_OWNER_LOCAL": FETCH_OWNER_LOCAL,
    "FETCH_OWNER_VIA": FETCH_OWNER_VIA,
    "FETCH_OWNER_REMOTE": FETCH_OWNER_REMOTE,
    "SHARING_WRITEBACK": SHARING_WRITEBACK,
    "SHARING_WRITEBACK_AT_HOME": SHARING_WRITEBACK_AT_HOME,
    "WRITEBACK": WRITEBACK,
    "WRITEBACK_LOCAL": WRITEBACK_LOCAL,
    "INVALIDATION": INVALIDATION,
    "UNCACHED_READ_REMOTE": UNCACHED_READ_REMOTE,
    "UNCACHED_WRITE_REMOTE": UNCACHED_WRITE_REMOTE,
    "SYNC_RMW_LOCAL": SYNC_RMW_LOCAL,
    "SYNC_RMW_HOME": SYNC_RMW_HOME,
    "SYNC_RELEASE_LOCAL": SYNC_RELEASE_LOCAL,
    "SYNC_RELEASE_HOME": SYNC_RELEASE_HOME,
    "SYNC_NOTIFY": SYNC_NOTIFY,
    "NACK_LOCAL": NACK_LOCAL,
    "NACK_REMOTE": NACK_REMOTE,
    "DROP_LOCAL": DROP_LOCAL,
    "DROP_REMOTE": DROP_REMOTE,
    "DUPLICATE_LOCAL": DUPLICATE_LOCAL,
    "DUPLICATE_REMOTE": DUPLICATE_REMOTE,
}
