"""Per-client admission control and token-bucket rate limiting.

The gateway is the first layer that meets untrusted traffic, so its
first job is protecting the cluster behind it: a client that floods
the submission endpoint must be rejected *at the gateway* — with a
structured error and a ``Retry-After`` hint — before its transactions
ever reach a replica mempool.  Two mechanisms, both per client:

* :class:`TokenBucket` — classic refill-at-rate / spend-per-request
  limiting with a burst allowance, clock-injectable so tests pin the
  refill arithmetic exactly;
* :class:`AdmissionController` — caps the number of distinct clients
  and the submitted-but-uncommitted transactions any one client may
  have in flight, so one abusive client cannot occupy the whole
  gateway (per-client isolation: everyone gets their own bucket and
  their own in-flight budget).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ReproError


class GatewayError(ReproError):
    """Base class for structured gateway-side rejections."""


class RateLimited(GatewayError):
    """The client exceeded its token bucket; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionDenied(GatewayError):
    """The gateway is at capacity for this client or overall."""

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, ``burst`` capacity.

    The bucket starts full (a fresh client gets its burst).  ``clock``
    is injectable so the refill arithmetic is unit-testable without
    sleeping.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    @property
    def tokens(self) -> float:
        """Current token count (refilled to now)."""
        self._refill(self._clock())
        return self._tokens

    def try_take(self, cost: float = 1.0) -> float:
        """Spend ``cost`` tokens; returns 0.0 on success, else the
        seconds until enough tokens will have refilled (the
        ``Retry-After`` the handler layer surfaces)."""
        now = self._clock()
        self._refill(now)
        if self._tokens >= cost:
            self._tokens -= cost
            return 0.0
        return (cost - self._tokens) / self.rate


@dataclass
class ClientState:
    """One admitted client's gateway-side state."""

    client_id: str
    bucket: TokenBucket
    #: Submitted-but-uncommitted transactions.
    inflight: int = 0
    submitted: int = 0
    rejected: int = 0


class AdmissionController:
    """Admits clients and enforces per-client isolation budgets."""

    def __init__(
        self,
        *,
        max_clients: int,
        max_inflight_per_client: int,
        rate: float,
        burst: float,
        clock=time.monotonic,
    ) -> None:
        self.max_clients = max_clients
        self.max_inflight_per_client = max_inflight_per_client
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self.clients: dict[str, ClientState] = {}

    def client(self, client_id: str) -> ClientState:
        """The client's state, admitting it if there is capacity."""
        state = self.clients.get(client_id)
        if state is None:
            if len(self.clients) >= self.max_clients:
                raise AdmissionDenied(
                    f"gateway is at its {self.max_clients}-client capacity",
                    code="client_capacity",
                )
            state = ClientState(
                client_id, TokenBucket(self.rate, self.burst, clock=self._clock)
            )
            self.clients[client_id] = state
        return state

    def check_submit(self, client_id: str) -> ClientState:
        """Admission + rate limiting for one submission attempt.

        Raises :class:`AdmissionDenied` (no capacity for a new client),
        :class:`RateLimited` (bucket empty, with Retry-After), or the
        in-flight-cap variant of :class:`RateLimited` (the client must
        wait for its own commits before submitting more — another
        client's backlog never counts against it).
        """
        state = self.client(client_id)
        if state.inflight >= self.max_inflight_per_client:
            state.rejected += 1
            # The honest hint: in-flight drains at commit speed, which
            # the gateway cannot promise; one token period is the
            # minimum sensible backoff.
            raise RateLimited(
                f"client {client_id!r} has {state.inflight} transactions in "
                f"flight (cap {self.max_inflight_per_client})",
                retry_after=1.0 / state.bucket.rate,
            )
        wait = state.bucket.try_take()
        if wait > 0.0:
            state.rejected += 1
            raise RateLimited(
                f"client {client_id!r} exceeded its rate budget "
                f"({state.bucket.rate:g}/s, burst {state.bucket.burst:g})",
                retry_after=wait,
            )
        return state
