"""Generators for desk-scale instances of three classic protocol models.

Each generator emits model-file text (the same format :func:`parmreach.model.parse_model`
reads).  The encodings are faithful-in-spirit reconstructions of the
well-known case studies — small, readable state machines exhibiting the
protocols' probabilistic structure — not bit-compatible exports of any
other tool's models.

* ``brp(chunks, max_retries)`` — bounded retransmission over two lossy
  channels with reliabilities ``pK`` (data) and ``pL`` (acknowledgment).
  The target is the error of interest: the sender gives up on a chunk
  that the receiver actually got (success not reported).  The model is
  acyclic: attempts per chunk are bounded.
* ``crowds(crowd_size, rounds)`` — anonymous routing with forwarding
  probability ``p_f`` and corrupt-member probability ``B``.  Each round
  routes one message; corrupt members on the first hop observe the true
  sender, corrupt members later on implicate the sender only with
  probability 1/crowd_size and otherwise force the path to be rebuilt
  within the round.  Two sender observations identify the sender (the
  target).  Every round contains a path-rebuilding loop with a nested
  relay self-loop, giving a two-level component hierarchy per round.
* ``zeroconf(probes)`` — address auto-configuration: a fresh address is
  picked with probability ``1 - q``; a colliding address survives one
  probe unanswered with probability ``p`` and is erroneously kept after
  ``probes`` unanswered probes.  The target is acquiring a valid
  address eventually.
"""

from __future__ import annotations

from .errors import ParmreachError

__all__ = [
    "SizeCapExceeded",
    "STATE_CAP",
    "brp",
    "crowds",
    "zeroconf",
]

STATE_CAP = 5000


class SizeCapExceeded(ParmreachError):
    """The requested instance would have more states than the cap allows."""


def _check_cap(states: int) -> None:
    """Refuse an instance of ``states`` states above the cap before building it."""
    if states > STATE_CAP:
        raise SizeCapExceeded(f"instance would have {states} states (cap {STATE_CAP})")


_Edges = dict[str, dict[str, str]]


def _emit(
    params: list[str],
    init: str,
    edges: _Edges,
    targets: list[str],
    header: str,
) -> str:
    """Render a model file, keeping only states reachable from ``init``.

    States are declared in breadth-first discovery order, so the output
    is deterministic and contains no dead rows.
    """
    order: list[str] = []
    seen = {init}
    frontier = [init]
    while frontier:
        s = frontier.pop(0)
        order.append(s)
        for t in edges.get(s, {}):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    lines = [f"# {header}"]
    if params:
        lines.append("@params " + " ".join(params))
    for s in order:
        lines.append(f"@state {s}")
    lines.append(f"@init {init} : 1")
    for s in order:
        for t, expr in edges[s].items():
            lines.append(f"@trans {s} -> {t} : {expr}")
    kept = [t for t in targets if t in seen]
    if kept:
        lines.append("@target " + " ".join(kept))
    return "\n".join(lines) + "\n"


def _add(edges: _Edges, s: str, t: str, expr: str) -> None:
    row = edges.setdefault(s, {})
    row[t] = f"{row[t]} + {expr}" if t in row else expr


def brp(chunks: int, max_retries: int) -> str:
    """Bounded retransmission: ``chunks`` chunks, ``max_retries`` resends each.

    ``send_i_t_d`` is attempt ``t`` for chunk ``i`` (``d`` = 1 when an
    earlier attempt already delivered the chunk but its acknowledgment
    was lost); ``wait_i_t`` awaits the acknowledgment.  Exhausting the
    attempts ends in ``failure_reported`` when the chunk truly never
    arrived, and in ``success_unreported`` — the target — when it did.
    """
    if chunks < 1 or max_retries < 0:
        raise ValueError("need chunks >= 1 and max_retries >= 0")
    # per chunk: sends 0..max, resends 1..max and waits 0..max; three sinks
    _check_cap(chunks * (3 * max_retries + 2) + 3)
    edges: _Edges = {}

    def send(i: int, t: int, d: int) -> str:
        return f"send_{i}_{t}_{d}"

    def wait(i: int, t: int) -> str:
        return f"wait_{i}_{t}"

    for i in range(1, chunks + 1):
        for t in range(max_retries + 1):
            last = t == max_retries
            for d in (0, 1):
                s = send(i, t, d)
                _add(edges, s, wait(i, t), "pK")
                if last:
                    give_up = "success_unreported" if d else "failure_reported"
                    _add(edges, s, give_up, "1 - pK")
                else:
                    _add(edges, s, send(i, t + 1, d), "1 - pK")
            w = wait(i, t)
            done = "all_delivered" if i == chunks else send(i + 1, 0, 0)
            _add(edges, w, done, "pL")
            if last:
                _add(edges, w, "success_unreported", "1 - pL")
            else:
                _add(edges, w, send(i, t + 1, 1), "1 - pL")

    for sink in ("all_delivered", "failure_reported", "success_unreported"):
        _add(edges, sink, sink, "1")
    return _emit(
        ["pK", "pL"],
        send(1, 0, 0),
        edges,
        ["success_unreported"],
        f"bounded retransmission: {chunks} chunks, {max_retries} retries",
    )


def crowds(crowd_size: int, rounds: int) -> str:
    """Anonymous routing: ``crowd_size`` members, ``rounds`` messages.

    ``route_r_c`` starts round ``r`` with ``c`` sender observations so
    far; ``relay_r_c`` is the honest-forwarding loop of that round.
    A second observation of the sender reaches ``caught`` (the target);
    surviving all rounds reaches ``safe``.
    """
    if crowd_size < 2 or rounds < 1:
        raise ValueError("need crowd_size >= 2 and rounds >= 1")
    # a route and a relay per round and sender observation count (only 0 in
    # round 1), then safe, and caught from round 2 on
    _check_cap(3 if rounds == 1 else 4 * rounds)
    edges: _Edges = {}
    hit = f"1/{crowd_size}"
    miss = f"{crowd_size - 1}/{crowd_size}"

    def route(r: int, c: int) -> str:
        return f"route_{r}_{c}"

    def relay(r: int, c: int) -> str:
        return f"relay_{r}_{c}"

    def observed(r: int, c: int) -> str:
        return "caught" if c + 1 >= 2 else _next(r, c + 1)

    def _next(r: int, c: int) -> str:
        return "safe" if r == rounds else route(r + 1, c)

    for r in range(1, rounds + 1):
        for c in (0, 1):
            s = route(r, c)
            _add(edges, s, observed(r, c), "B")
            _add(edges, s, relay(r, c), "1 - B")
            y = relay(r, c)
            _add(edges, y, _next(r, c), "1 - p_f")
            _add(edges, y, y, "p_f * (1 - B)")
            _add(edges, y, observed(r, c), f"p_f * B * {hit}")
            _add(edges, y, s, f"p_f * B * {miss}")

    _add(edges, "caught", "caught", "1")
    _add(edges, "safe", "safe", "1")
    return _emit(
        ["p_f", "B"],
        route(1, 0),
        edges,
        ["caught"],
        f"crowds routing: {crowd_size} members, {rounds} rounds",
    )


def zeroconf(probes: int) -> str:
    """Address auto-configuration with ``probes`` collision probes.

    The reachability probability of ``valid`` from ``pick`` has the
    closed form (1 - q) / (1 - q * (1 - p^probes)).
    """
    if probes < 1:
        raise ValueError("need probes >= 1")
    _check_cap(probes + 3)  # the probes, pick, valid and in_use
    edges: _Edges = {}
    _add(edges, "pick", "valid", "1 - q")
    _add(edges, "pick", "probe_1", "q")
    for k in range(1, probes + 1):
        s = f"probe_{k}"
        _add(edges, s, "pick", "1 - p")
        _add(edges, s, "in_use" if k == probes else f"probe_{k + 1}", "p")
    _add(edges, "valid", "valid", "1")
    _add(edges, "in_use", "in_use", "1")
    return _emit(
        ["p", "q"],
        "pick",
        edges,
        ["valid"],
        f"address auto-configuration: {probes} probes",
    )
