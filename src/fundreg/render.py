"""SVG drawings: room-set layers in the covering plane, and the quotient strip.

Only ``fundreg render`` and ``fundreg quotient --format svg`` import this
module.  Both write the text as it is made, one line at a time, so no
command holds a whole drawing.  Output is deterministic byte for byte:
fixed ordering, fixed number formatting, colours hashed from labels.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .checker import QuotientDescription, RunConfig, make_system, quotient_build
from .freegroup import IDENTITY_WORD, LETTERS, ReducedWord, word
from .tilespace import DIAG, LEFT, LOWER, UPPER, RoomSet, neighborhood_roomset

_RANK = {letter: rank for rank, letter in enumerate(LETTERS)}


def _room_order(room: ReducedWord) -> tuple[int, bytes]:
    """``ReducedWord.sort_key``'s order at one byte a letter: a tuple of
    ints costs eight, and the spine's keys together are quadratic in R."""
    return len(room.letters), bytes(map(_RANK.__getitem__, room.letters))


def label_color(label: str) -> str:
    """Stable mid-range hex color derived from the label text."""
    import hashlib  # only drawing needs it

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    r, g, b = (48 + v % 160 for v in digest[:3])
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_num(value: float) -> str:
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def _document(lines: Iterable[str]) -> Iterator[str]:
    """``"\\n".join(lines) + "\\n"``, one line at a time."""
    for line in lines:
        yield line + "\n"


# ------------------------------------------------------------- room sets


def _roomset_lines(
    layers: Iterable[tuple[str, RoomSet]], unit: int = 48, pad: int = 16
) -> Iterator[str]:
    layer_list = list(layers)
    rooms: set[ReducedWord] = set()
    for _, roomset in layer_list:
        rooms.update(roomset.rooms)
    if not rooms:
        rooms.add(IDENTITY_WORD)
    offsets = {room: room.exponent_vector() for room in rooms}
    xs = [o[0] for o in offsets.values()]
    ys = [o[1] for o in offsets.values()]
    min_x, max_x = min(xs), max(xs) + 1
    min_y, max_y = min(ys), max(ys) + 1

    legend_h = 22 * len(layer_list) + 8 if layer_list else 0
    width = pad * 2 + (max_x - min_x) * unit
    height = pad * 2 + (max_y - min_y) * unit + legend_h

    def px(x: float) -> str:
        return _svg_num(pad + (x - min_x) * unit)

    def py(y: float) -> str:
        return _svg_num(pad + (max_y - y) * unit)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    yield f'<rect width="{width}" height="{height}" fill="white"/>'

    for room in sorted(rooms, key=_room_order):
        ox, oy = offsets[room]
        yield (
            f'<rect x="{px(ox)}" y="{py(oy + 1)}" width="{unit}" height="{unit}" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
        yield (
            f'<text x="{px(ox + 0.5)}" y="{py(oy + 0.78)}" font-size="{unit // 5}" '
            f'text-anchor="middle" fill="#999999" '
            f'font-family="monospace">{room.text()}</text>'
        )

    for label, roomset in layer_list:
        color = label_color(label)
        yield '<g stroke-linecap="round">'
        by_room = sorted(roomset.rooms.items(), key=lambda kv: _room_order(kv[0]))
        for room, atoms in by_room:
            ox, oy = offsets[room]
            for atom in sorted(atoms):
                if atom == UPPER:
                    pts = f"{px(ox)},{py(oy)} {px(ox)},{py(oy + 1)} {px(ox + 1)},{py(oy + 1)}"
                    yield (
                        f'<polygon points="{pts}" fill="{color}" fill-opacity="0.45" stroke="none"/>'
                    )
                elif atom == LOWER:
                    pts = f"{px(ox)},{py(oy)} {px(ox + 1)},{py(oy)} {px(ox + 1)},{py(oy + 1)}"
                    yield (
                        f'<polygon points="{pts}" fill="{color}" fill-opacity="0.45" stroke="none"/>'
                    )
                else:
                    if atom == DIAG:
                        x1, y1, x2, y2 = ox, oy, ox + 1, oy + 1
                    elif atom == LEFT:
                        x1, y1, x2, y2 = ox, oy, ox, oy + 1
                    else:
                        x1, y1, x2, y2 = ox, oy, ox + 1, oy
                    yield (
                        f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
                        f'stroke="{color}" stroke-width="2.5"/>'
                    )
        yield "</g>"

    legend_y = pad * 2 + (max_y - min_y) * unit
    for i, (label, _) in enumerate(layer_list):
        color = label_color(label)
        y = legend_y + 22 * i
        yield (
            f'<rect x="{pad}" y="{y}" width="14" height="14" fill="{color}" fill-opacity="0.65"/>'
        )
        yield (
            f'<text x="{pad + 20}" y="{y + 12}" font-size="12" fill="#333333" '
            f'font-family="monospace">{label}</text>'
        )

    yield "</svg>"


def render_roomsets(
    layers: Iterable[tuple[str, RoomSet]], unit: int = 48, pad: int = 16
) -> str:
    """Standalone SVG of room-set layers drawn in the covering plane.

    Rooms sit at their exponent-vector offsets; distinct words with equal
    offsets overprint, which is the honest picture of the covering shadow.
    """
    return "\n".join(_roomset_lines(layers, unit, pad))


# ---------------------------------------------------------- quotient strip


def quotient_strip_svg(desc: QuotientDescription) -> Iterator[str]:
    """The lines of an SVG row of closed triangles with arrowed edge
    identifications.

    Triangle k's top edge carries the same arrow colour as triangle
    k+1's left edge; both arrows point in the direction of increasing
    edge parameter, which is how the gluing matches them up.
    """
    rooms = [piece.rsplit(" ", 1)[-1] for piece in desc.pieces]
    count = len(rooms)
    unit, gap, pad = 72, 30, 20
    top = pad + 26
    bottom = top + unit
    width = pad * 2 + count * unit + (count - 1) * gap
    height = bottom + 40 + 18 * (len(desc.notes) + 1)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    yield f'<rect width="{width}" height="{height}" fill="white"/>'
    yield "<defs>" + "".join(
        f'<marker id="arrow{k}" viewBox="0 0 10 10" refX="9" refY="5" '
        f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{label_color(d["via"])}"/></marker>'
        for k, d in enumerate(desc.identifications)
    ) + "</defs>"

    for k, room in enumerate(rooms):
        x0 = pad + k * (unit + gap)
        points = f"{x0},{bottom} {x0},{top} {x0 + unit},{top}"
        yield (
            f'<polygon points="{points}" fill="{label_color(room)}" '
            f'fill-opacity="0.35" stroke="#444444" stroke-width="1"/>'
        )
        yield (
            f'<text x="{x0 + unit // 3}" y="{bottom + 16}" font-size="13" '
            f'text-anchor="middle" font-family="monospace" '
            f'fill="#333333">{room}</text>'
        )

    for k, ident in enumerate(desc.identifications):
        color = label_color(ident["via"])
        x_from = pad + k * (unit + gap)
        yield (
            f'<line x1="{x_from}" y1="{top}" x2="{x_from + unit}" y2="{top}" '
            f'stroke="{color}" stroke-width="3" marker-end="url(#arrow{k})"/>'
        )
        yield (
            f'<text x="{x_from + unit // 2}" y="{top - 8}" font-size="11" '
            f'text-anchor="middle" font-family="monospace" '
            f'fill="{color}">{ident["via"]}</text>'
        )
        x_to = pad + (k + 1) * (unit + gap)
        yield (
            f'<line x1="{x_to}" y1="{bottom}" x2="{x_to}" y2="{top}" '
            f'stroke="{color}" stroke-width="3" marker-end="url(#arrow{k})"/>'
        )

    captions = [f"orientation: {d['orientation']}" for d in desc.identifications[:1]]
    captions += desc.notes
    for i, caption in enumerate(captions):
        yield (
            f'<text x="{pad}" y="{bottom + 40 + 18 * i}" font-size="12" '
            f'font-family="monospace" fill="#555555">{caption}</text>'
        )

    yield "</svg>"


def quotient_svg(desc: QuotientDescription) -> Iterator[str]:
    """The text of ``fundreg quotient --format svg``, line by line."""
    return _document(quotient_strip_svg(desc))


# ----------------------------------------------------------------- views


def draw(view: str, center: str, radius: int) -> Iterator[str]:
    """The text of ``fundreg render <view>``, line by line.  Everything
    that can fail (a bad word, a room past the radius, a region over the
    budget) runs before this returns, so a refused drawing writes nothing."""
    cfg = RunConfig(radius=radius)
    if view == "nbhd":
        middle = word(center)
        patch = neighborhood_roomset(middle, cfg.radius)
        lines = _roomset_lines([(f"neighbourhood of {middle.text()}", patch)])
    elif view == "spine":
        system = make_system("free2house")
        lines = _roomset_lines(
            [
                ("fundamental region", system.region(cfg.radius)),
                ("region boundary", system.boundary(cfg.radius)),
            ]
        )
    else:
        _, desc = quotient_build(make_system("free2house"), cfg)
        assert desc is not None
        lines = quotient_strip_svg(desc)
    return _document(lines)
