"""Reused scratch buffers for the time-stepping path.

A large temporary that is freed at the top of the heap, or that is mapped
on its own, goes back to the operating system, and the next call faults
its pages in again. So the flux kernel keeps its temporaries from call to
call, and the face divergence keeps its own and the face fluxes that it
drops once added (the kernel's ``out``).
The buffers are per thread, so threads never share one, and each owner
holds one set only: the set for the latest key it asked for. A new key
drops the old set before the new one is built.
"""

from __future__ import annotations

import threading

_held = threading.local()


def scratch(owner, key, build):
    """This thread's buffers of ``owner`` for the tuple ``key``;
    ``build(*key)`` makes them when the held set has another key (or there
    is none yet)."""
    slots = _held.__dict__
    held = slots.get(owner)
    if held is None or held[0] != key:
        slots.pop(owner, None)
        held = slots[owner] = (key, build(*key))
    return held[1]
