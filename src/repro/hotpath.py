"""Process-level memoization for deterministic hot paths.

The runtime's :class:`~repro.runtime.cache.ResultCache` content-addresses
*answers* (profiles, plans, costs) per cache instance; this module memoizes
the deterministic *inputs* those answers are computed from — catalogue
network builds, FBISA compilations of shared networks, per-program block
reports, the config-free verifier findings of compiled models, the
config-free model analytics (:data:`MODEL_ANALYTICS`) — which every fresh
cache or session otherwise recomputes from scratch.  The two layers
compose: the ResultCache makes a question free the second time *one
session* asks it, the hot-path memos make the underlying construction free
the second time *any* session in the process needs it.

Every memo registers itself here so that

* the bench harness (:mod:`repro.bench`) can A/B the optimized and
  unoptimized paths (:func:`disabled`) and report hit rates, and
* tests can :func:`clear_all` for isolation.

Contract: values handed out by a memo are **shared** — callers must treat
them as read-only.  Mutating paths (e.g. :func:`repro.quant.quantize.
apply_plan`) must build fresh objects instead, which is why
:meth:`repro.runtime.workloads.RuntimeWorkload.build_network` stays
un-memoized and only the internal analytic paths use the shared variant.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, Tuple, TypeVar

T = TypeVar("T")

#: Registered memos, by name (populated at import time by the owning modules).
_MEMOS: Dict[str, "Memo"] = {}


@dataclass(frozen=True)
class MemoStats:
    """Hit/miss counters of one :class:`Memo`."""

    name: str
    hits: int
    misses: int
    entries: int
    enabled: bool

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Memo:
    """A named, registry-tracked memo for one deterministic hot path.

    Two storage modes share the counters:

    * :meth:`get_or_build` — a plain keyed store inside the memo (used for
      catalogue network builds, whose keys are workload identities);
    * :meth:`get_or_attr` — a per-object store living in the *object's*
      ``__dict__`` (used for compilations keyed on a shared network and
      block reports keyed on a compiled model), so entries are garbage
      collected with the object they describe and a mutated fresh object
      can never alias a stale entry.

    Disabling a memo makes both modes call ``build()`` unconditionally
    without consulting or writing any store — the bench harness uses this
    to measure the unoptimized path honestly.
    """

    def __init__(self, name: str) -> None:
        if name in _MEMOS:
            raise ValueError(f"hot-path memo {name!r} is already registered")
        self.name = name
        self.enabled = True
        self._attr = f"_hotpath_{name.replace('-', '_')}"
        self._entries: Dict[Hashable, Any] = {}
        self._hits = 0
        self._misses = 0
        _MEMOS[name] = self

    def get_or_build(self, key: Hashable, build: Callable[[], T]) -> T:
        """Return the memoized value for ``key``, building and storing on miss."""
        if not self.enabled:
            return build()
        if key in self._entries:
            self._hits += 1
            return self._entries[key]
        self._misses += 1
        value = build()
        self._entries[key] = value
        return value

    def get_or_attr(self, obj: Any, key: Hashable, build: Callable[[], T]) -> T:
        """Like :meth:`get_or_build`, but stored on ``obj`` itself.

        The store lives in ``obj.__dict__`` so it is dropped together with
        the object; ``key`` distinguishes variants (e.g. input block sizes,
        configuration knobs) within one object.
        """
        if not self.enabled:
            return build()
        store: Dict[Hashable, Any] = obj.__dict__.setdefault(self._attr, {})
        if key in store:
            self._hits += 1
            return store[key]
        self._misses += 1
        value = build()
        store[key] = value
        return value

    def get_if_shared(self, obj: Any, key: Hashable, build: Callable[[], T]) -> T:
        """:meth:`get_or_attr` when ``obj`` is shared (see :func:`is_shared`).

        Any other object may still change, so its value is built afresh.
        """
        if is_shared(obj):
            return self.get_or_attr(obj, key, build)
        return build()

    def clear(self) -> None:
        """Drop keyed entries and reset counters (attr stores die with their objects)."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> MemoStats:
        return MemoStats(
            name=self.name,
            hits=self._hits,
            misses=self._misses,
            entries=len(self._entries),
            enabled=self.enabled,
        )


def is_shared(obj: Any) -> bool:
    """Whether ``obj`` carries the ``shared`` metadata marker.

    Shared objects are frozen by contract (see the module docstring), so
    only they may key a :meth:`Memo.get_or_attr` store whose value derives
    from their contents.
    """
    return bool((getattr(obj, "metadata", {}) or {}).get("shared"))


#: The config-free analytics of shared networks and of their compiled models:
#: NCR, NBR and output size per input block, intrinsic complexity, net
#: resolution scale, sub-model splits and program totals.  A design-point
#: profile asks for them under every configuration, yet they depend only on
#: the network (and the input block), so each is computed once per process.
#: Consulted from ``core``, ``models``, ``hw`` and ``api``, hence registered
#: here rather than in one owning module.
MODEL_ANALYTICS = Memo("model-analytics")


def memo(name: str) -> Memo:
    """Look up a registered memo by name."""
    try:
        return _MEMOS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown hot-path memo {name!r}; expected one of {sorted(_MEMOS)}"
        ) from exc


def all_memos() -> Tuple[Memo, ...]:
    """Every registered memo, sorted by name."""
    return tuple(_MEMOS[name] for name in sorted(_MEMOS))


def clear_all() -> None:
    """Clear every registered memo (test/bench isolation)."""
    for entry in _MEMOS.values():
        entry.clear()


@contextmanager
def disabled(*names: str) -> Iterator[None]:
    """Temporarily disable the named memos (all of them when none named).

    The bench harness wraps its baseline measurements in this so the
    unoptimized path is exercised for real, not served from a warm memo.
    """
    selected = [memo(name) for name in names] if names else list(_MEMOS.values())
    previous = [(entry, entry.enabled) for entry in selected]
    try:
        for entry in selected:
            entry.enabled = False
        yield
    finally:
        for entry, state in previous:
            entry.enabled = state
