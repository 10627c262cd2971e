"""Adversaries against a finished run, each reading one party's view of it.

A view is what one party opened, by sender: `leader_view` gives the round
leader's, every share response, fallback response and fetched rows body it
opened, in that order. An adversary takes a view and returns a claim, checked
by its test against the run's own state. Each adversary also has a positive
control: a frozen copy of an earlier protocol behaviour that it must beat, so
it cannot go quietly vacuous once the protocol stops leaking.

(a) `linear_search_unmask`: the aggregator alone reads a contributor's
inputs from its submission. Each pad is V_i(0) * h_a with h_a public, so
h_1 * c1_0 - h_0 * c1_1 = h_1 * w_0 - h_0 * w_1, and a search over the small
w_1 finds the one w_0 that is small too; V_i(0) and the rest follow.

(b) `meet_in_the_middle_unmask`: the same in the group, where c1_a =
G^(V_i(0) * h_a + w_a). c1_0^h_1 / c1_1^h_0 = G^(h_1 * w_0 - h_0 * w_1),
and a table of G^(h_1 * w_0) over the decode range meets G^(h_0 * w_1) times
it; then G^V_i(0), and each G^w_a, whose small logarithm a search reads.

(c) `unmask_with_self_pads`: the leader and the aggregator together read
every contributor's inputs, w_a = c1_a - V_i(0) * h_a, from the submissions
the aggregator holds and the `self` field [k_i, V_i(0)] the leader opens.

(d) `forge_two_element`: the aggregator solves the round key s from two
elements of an aggregate and the public label coefficients, then shifts
element 0's sum by any delta without breaking the tag.

(f) `rebuild_pair_keys`: the leader rebuilds the channel key of a pair of
other parties, k_ij = A_i(j) + A_j(i), from the second rows its bodies carry.
A rogue requester, a peer that sends `rogue_rows_request` as verification
opens, before the first turn, would read the same rows from every holder that
answered it, and with `rebuild_pad_keys` each member's pad key V_i(0) from
the first rows.
"""

from __future__ import annotations

from secel.protocol import ScenarioResult
from secel.simnet import channel_key

# body fields that carry second-row values A_q(holder), keyed by dealer q: the
# frozen share body's every held row, and a fetched rows body's share-loser rows
SECOND_ROW_FIELDS = ("a_evals", "lost")


def leader_view(result: ScenarioResult) -> dict[int, list[dict]]:
    """sender -> the bodies the last round's leader opened from it."""
    leader = result.nodes[result.rounds[-1].leader]
    view: dict[int, list[dict]] = {}
    for opened in (leader.resp, leader.resp_fb, leader.rows):
        for src, body in opened.items():
            view.setdefault(src, []).append(body)
    return view


def unmask_with_self_pads(
    view: dict[int, list[dict]], submissions: dict[int, list[list[int]]], h: tuple[int, ...], p: int
) -> dict[int, list[int]]:
    """Adversary (c): contributor i -> its inputs w_a = c1_a - V_i(0) * h_a mod p,
    for every i whose submission the aggregator holds and whose `self` field
    the view shows."""
    pads = {i: body["self"][1] for i, bodies in view.items() for body in bodies if body.get("self")}
    return {
        i: [(c1 - pads[i] * h_a) % p for h_a, (c1, _) in zip(h, sub)]
        for i, sub in submissions.items() if i in pads
    }


def linear_search_unmask(
    sub: list[list[int]], h: tuple[int, ...], p: int, bound: int = 1 << 20
) -> list[int] | None:
    """Adversary (a): the inputs w_a, as field values, of one scalar submission
    whose pad is key-linear, assuming |w_a| < bound; None if no w_1 in
    [-bound, bound) gives a w_0 inside it.

    w_0 = (h_1 * c1_0 - h_0 * c1_1 + h_0 * w_1) / h_1, so each candidate w_1
    costs one modular add of h_0 / h_1."""
    (c1_0, _), (c1_1, _) = sub[:2]
    inv = pow(h[1], -1, p)
    step = h[0] * inv % p
    w0 = ((h[1] * c1_0 - h[0] * c1_1) * inv - bound * step) % p
    low, high = bound, p - bound  # w_0 in [0, bound) or (p - bound, p)
    for _ in range(2 * bound):
        if w0 < low or w0 > high:
            pad = (c1_0 - w0) * pow(h[0], -1, p) % p
            return [(c1 - pad * h_a) % p for h_a, (c1, _) in zip(h, sub)]
        w0 += step
        if w0 >= p:
            w0 -= p
    return None


def meet_in_the_middle_unmask(
    subs: list[list[list[int]]], h: tuple[int, ...], group, bound: int
) -> list[list[int] | None]:
    """Adversary (b): the inputs w_a of each group submission whose pad is
    key-linear, assuming 0 <= w_a < bound; None for a submission it cannot
    read. One table of G^(h_1 * w_0) serves every submission of the round."""
    p, q = group.p, group.q
    g0, g1 = group.lift(h[0]), group.lift(h[1])
    table, x = {}, 1
    for w0 in range(bound):
        table.setdefault(x, w0)
        x = x * g1 % p
    logs, x = {}, 1  # G^w -> w, to read each element's small exponent
    for w in range(bound):
        logs.setdefault(x, w)
        x = x * group.g % p
    found = []
    for sub in subs:
        (c1_0, _), (c1_1, _) = sub[:2]
        y = pow(c1_0, h[1], p) * pow(c1_1, q - h[0], p) % p  # G^(h_1 w_0 - h_0 w_1)
        w0 = None
        for w1 in range(bound):
            w0 = table.get(y)
            if w0 is not None:
                break
            y = y * g0 % p
        if w0 is None:
            found.append(None)
            continue
        # G^V = (c1_0 / G^w_0)^(1 / h_0), then G^w_a = c1_a / (G^V)^h_a
        g_pad = pow(c1_0 * group.lift(q - w0) % p, pow(h[0], -1, q), p)
        found.append([logs.get(c1 * pow(g_pad, q - h_a, p) % p) for h_a, (c1, _) in zip(h, sub)])
    return found


def solve_round_key(agg: list[list[int]], h: tuple[int, ...], p: int) -> int | None:
    """s from the first two elements of an aggregate whose tag is key-linear:
    c2_a * s + c1_a == k * h_a for both, so k cancels and
    s = (h0 * c1_1 - h1 * c1_0) / (h1 * c2_0 - h0 * c2_1). None if that divides by 0."""
    (c1_0, c2_0), (c1_1, c2_1) = agg[:2]
    den = (h[1] * c2_0 - h[0] * c2_1) % p
    if den == 0:
        return None
    return (h[0] * c1_1 - h[1] * c1_0) * pow(den, -1, p) % p


def forge_two_element(
    agg: list[list[int]], h: tuple[int, ...], p: int, delta: int
) -> list[list[int]] | None:
    """Adversary (d): the aggregate with (delta, -delta / s) added to element 0,
    which keeps c2 * s + c1 and moves the unmasked sum by delta; None if s
    does not solve."""
    s = solve_round_key(agg, h, p)
    if s is None:
        return None
    (c1, c2), *rest = agg
    return [[(c1 + delta) % p, (c2 - delta * pow(s, -1, p)) % p], *rest]


def frozen_share_body(node, m: list[int]) -> dict:
    """The share response an intact holder sent before rows were fetched on
    request: every first row it holds of m, its own share, its own keys and,
    in the scalar variant, every second row it holds."""
    arith = node.arith
    held = {str(i): arith.first_row(node, i) for i in m if i in node.held_v}
    keys = node._self_keys() if node.id in m else None
    if node.spec.variant == "scalar":
        a_evals = {str(q): v for q, v in node.held_a.items()}
        return {"v_evals": held, "s_v": node.own_share, "self": keys, "a_evals": a_evals}
    # the share lift does not depend on the loser it would help
    return {"v_lifts": held, "share_lift": arith.lost_row(node, node.id), "self": keys}


def second_rows(view: dict[int, list[dict]]) -> dict[tuple[int, int], int]:
    """(dealer q, holder j) -> A_q(j), for every second-row value the view shows."""
    rows = {}
    for holder, bodies in view.items():
        for body in bodies:
            for name in SECOND_ROW_FIELDS:
                for q, value in (body.get(name) or {}).items():
                    rows[(int(q), holder)] = value
    return rows


def rebuild_pair_keys(view: dict[int, list[dict]], p: int) -> dict[tuple[int, int], bytes]:
    """Adversary (f): (i, j) -> chan_key(i, j) for every pair i < j whose two
    second rows A_i(j) and A_j(i) the view shows."""
    rows = second_rows(view)
    return {
        (i, j): channel_key((a_ij + rows[(j, i)]) % p)
        for (i, j), a_ij in rows.items()
        if i < j and (j, i) in rows
    }


def true_pair_keys(result: ScenarioResult, claims: dict[tuple[int, int], bytes]) -> set:
    """The claimed pairs whose key is the one both ends really hold."""
    nodes = result.nodes
    return {
        (i, j) for (i, j), key in claims.items()
        if nodes[i].chan_key(j) is not None and key == nodes[i].chan_key(j) == nodes[j].chan_key(i)
    }


def rogue_rows_request(node, sim) -> None:
    """Adversary (f)'s rogue requester: peer `node` asks every other party, as
    a leader would, for the first rows and the recovery rows of every other
    member."""
    others = [i for i in node.spec.participant_ids if i != node.id]
    sim.broadcast(node.id, others, "rows_req", {"m": others, "lost": others})


def rebuild_pad_keys(view: dict[int, list[dict]], arith, t: int) -> dict[int, int]:
    """Adversary (f): member i -> its pad key V_i(0), as an arith value, for
    every i whose first row the view shows from t holders."""
    held: dict[int, dict[int, int]] = {}
    for holder, bodies in view.items():
        for body in bodies:
            for i, value in (body.get("v") or {}).items():
                held.setdefault(int(i), {})[holder] = value
    return {
        i: arith.interpolate(sorted(rows.items())[:t], 0, t)
        for i, rows in held.items() if len(rows) >= t
    }
