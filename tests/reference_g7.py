"""Reference degree-reduction steps: the whole charge table, copied.

This is the original ``_charge_table``, which writes the scenario C/D
rule once for each end of a canonical-path edge, and the original
``g7_transform``, which rewires a private copy of every charge (all four
scenarios, both signs) and filters it by scenario and sign where it
reads it. The library now writes the C/D rule once for both ends, in
``path_charges``, and its ``g7_transform`` keeps a ledger of only the
scenario-C path charges, so no build makes the whole table; the
differential tests in ``test_g7_reference.py`` compare the two, charge
order, path charges, first errors and transcripts included.
"""

from __future__ import annotations

from polyspanner.cones import ConeIndex, ConeLabel, SIDE_LEFT, SIDE_RIGHT, SubconeRef
from polyspanner.scene import Scene
from polyspanner.spanners import (
    Charge,
    G7Result,
    Transformation,
    _edge,
    _positive_subcone_containing,
    _scenario_d_target,
    canonical_sequences,
)
from polyspanner.visibility import Graph


def compute_charges(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    """The reference charge table, built afresh on every call."""
    return _charge_table(scene, ginf, index)


def _charge_table(scene: Scene, ginf: Graph, index: ConeIndex) -> dict:
    charges: dict[SubconeRef, list] = {}

    def add(ref: SubconeRef, charge: Charge) -> None:
        charges.setdefault(ref, []).append(charge)

    for seq in canonical_sequences(scene, ginf, index).values():
        u = seq.apex
        j = seq.subcone.label.index
        e = _edge(u, seq.closest)
        add(seq.subcone, Charge(e, "B", seq.subcone))
        add(
            _positive_subcone_containing(index, seq.closest, u),
            Charge(e, "A", seq.subcone),
        )
        for p, q in seq.consecutive_pairs:
            e = _edge(p, q)
            # Looking from p toward its ccw successor q.
            lab_pq = index.subcone_of(p, q).label
            if not lab_pq.positive:
                # scenario C at p; the edge sits in the negative cone
                # adjacent (ccw) to the cone containing u.
                add(
                    _positive_subcone_containing(index, p, u),
                    Charge(e, "C", seq.subcone),
                )
            else:
                add(
                    _scenario_d_target(index, p, (j + 1) % 3, SIDE_LEFT),
                    Charge(e, "D", seq.subcone),
                )
            # Looking from q toward its cw predecessor p.
            lab_qp = index.subcone_of(q, p).label
            if not lab_qp.positive:
                add(
                    _positive_subcone_containing(index, q, u),
                    Charge(e, "C", seq.subcone),
                )
            else:
                add(
                    _scenario_d_target(index, q, (j - 1) % 3, SIDE_RIGHT),
                    Charge(e, "D", seq.subcone),
                )
    return {ref: tuple(cs) for ref, cs in charges.items()}


def g7_transform(
    scene: Scene, ginf: Graph, g10: Graph, index: ConeIndex
) -> G7Result:
    """Resolve every positive subcone charged twice by one canonical
    path, scanning vertices in index order and keeping a private copy
    of the charge table current after each application; the shared
    table is left as built."""
    charges = {
        ref: list(cs) for ref, cs in compute_charges(scene, ginf, index).items()
    }
    table = canonical_sequences(scene, ginf, index)

    def drop_edge(edge: tuple) -> None:
        for cs in charges.values():
            cs[:] = [c for c in cs if c.edge != edge]

    def closest_in_own_subcone(apex: int, member: int) -> bool:
        seq = table.get(index.subcone_of(apex, member))
        return seq is not None and seq.closest == member

    edges = set(g10.edges)
    transcript = []

    candidates = []
    for ref in sorted(charges):
        if not ref.label.positive:
            continue
        groups: dict[SubconeRef, list] = {}
        for c in charges[ref]:
            if c.scenario == "C":
                groups.setdefault(c.owner_subcone, []).append(c)
        for owner_sub, cs in sorted(groups.items()):
            if len(cs) == 2:
                candidates.append((ref, owner_sub))

    for ref, owner_sub in candidates:
        current = [
            c
            for c in charges[ref]
            if c.scenario == "C" and c.owner_subcone == owner_sub
        ]
        if len(current) != 2:
            continue  # an earlier application already resolved this cone
        v = ref.apex
        seq = table[owner_sub]
        order = seq.vertices
        i = order.index(v)
        # Both charged edges are the path edges at v; x sits on the same
        # side of v as the owner's closest vertex.
        if order.index(seq.closest) < i:
            x, y = order[i - 1], order[i + 1]
        else:
            x, y = order[i + 1], order[i - 1]

        charge_vx = next((c for c in current if c.edge == _edge(v, x)), None)
        charge_vy = next((c for c in current if c.edge == _edge(v, y)), None)
        if charge_vx is None or charge_vy is None:
            continue  # an overlapping application already rewired one edge

        if closest_in_own_subcone(v, x):
            charges[ref].remove(charge_vx)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue
        if closest_in_own_subcone(v, y):
            charges[ref].remove(charge_vy)
            transcript.append(Transformation(owner_sub, v, x, y, absorbed=True))
            continue

        # Structural step: (v, y) goes away, (x, y) arrives.
        e_vy = _edge(v, y)
        e_xy = _edge(x, y)
        y_side = [
            (r, c)
            for r, cs in charges.items()
            if r.apex == y
            for c in cs
            if c.edge == e_vy
        ]
        drop_edge(e_vy)
        edges.discard(e_vy)
        edges.add(e_xy)
        for r, c in y_side:
            charges.setdefault(r, []).append(Charge(e_xy, c.scenario, c.owner_subcone))

        # At x the new edge takes over the slot of (x, w) when that edge
        # is redundant or removable; w is x's neighbor on the canonical
        # path of v through x's subcone.
        removed_xw = None
        uncharged_xw = None
        sub_x = index.subcone_of(v, x)
        vseq = table[sub_x].vertices
        xi = vseq.index(x)
        w = None
        if len(vseq) > 1:
            if xi == 0:
                w = vseq[1]
            elif xi == len(vseq) - 1:
                w = vseq[-2]
            else:
                # The path structure makes x an endpoint; stay total if
                # an unexpected interior position shows up.
                w = vseq[xi + 1]
        slot = _positive_subcone_containing(index, x, v)
        if w is not None:
            lab_w = index.subcone_of(x, w).label
            if lab_w == ConeLabel(False, ref.label.index):
                e_xw = _edge(x, w)
                if closest_in_own_subcone(x, w):
                    # (x, w) was double counted at x; free its path charge.
                    freed = [
                        c
                        for c in charges.get(slot, [])
                        if c.edge == e_xw and c.scenario == "C"
                    ]
                    if freed:
                        charges[slot].remove(freed[0])
                        uncharged_xw = e_xw
                else:
                    drop_edge(e_xw)
                    edges.discard(e_xw)
                    removed_xw = e_xw
        charges.setdefault(slot, []).append(Charge(e_xy, "C", sub_x))
        transcript.append(
            Transformation(
                owner_sub,
                v,
                x,
                y,
                absorbed=False,
                removed_vy=e_vy,
                added_xy=e_xy,
                removed_xw=removed_xw,
                uncharged_xw=uncharged_xw,
            )
        )

    return G7Result(Graph(scene.n, edges), tuple(transcript))
