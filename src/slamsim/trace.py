"""The trace's record format and its store.

A run's trace is its sequence of timestamped transition records. Each
record reads as a flat JSON object: `t_ns`, `entity`, `transition`, then
the record's own fields, in that order, every value an int or a str.

`Trace` keeps a record as three things, in flat list columns:

* its time, in `times`;
* its kind, a small int, in `kinds`;
* its frame id, in `frames`, for a kind that carries one (`frames` holds
  one entry per such record, in record order).

A kind fixes everything else of a record: its entity, its transition and
its constant fields, such as a TaskDone's stage, a bank record's bank and
consumer, or a drop's reason. `kind(...)` interns it once per process in
`KINDS`; an id means nothing in another process. A writer resolves its
kinds before the run and appends two ints per record (three with a frame
id), so a record costs the trace about 30 B: its list slots, and its
time's int object where no other state holds that int too. A dict per
record cost about 200 B.

A `Trace` is an append-only log, read by iteration: each record comes
back as a fresh dict, so what a caller does with one never reaches the
store. `len` is O(1), iteration is one pass, and a trace equals a list of
the dicts it reads back as. A caller that needs random access takes
`list(trace)`, at the cost of a dict per record.
"""

from __future__ import annotations


class _FrameSlot:
    """The stand-in for the frame id among a kind's fields."""

    def __repr__(self) -> str:
        return "FRAME"


FRAME = _FrameSlot()


class Kind:
    """A record's entity, transition and fields; a `frame` field given as
    FRAME is where a record's own frame id goes."""

    __slots__ = ("entity", "transition", "fields", "framed", "head", "tail")

    def __init__(self, entity: str, transition: str, fields: dict):
        self.entity = entity
        self.transition = transition
        self.fields = fields
        self.framed = fields.get("frame") is FRAME
        keys = list(fields)
        cut = keys.index("frame") if self.framed else len(keys)
        self.head = {"entity": entity, "transition": transition,
                     **{key: fields[key] for key in keys[:cut]}}
        self.tail = {key: fields[key] for key in keys[cut + 1:]}

    def record(self, t: int, frame: int | None = None) -> dict:
        rec = {"t_ns": t, **self.head}
        if self.framed:
            rec["frame"] = frame
            rec.update(self.tail)
        return rec


KINDS: list[Kind] = []
_IDS: dict[tuple, int] = {}


def kind(entity: str, transition: str, **fields) -> int:
    """The id of the record kind with this entity and transition (strs) and
    these fields, in the order given. Each field's value is an int or a str,
    except that `frame=FRAME` stands for each record's own frame id."""
    # Checked before the lookup: 0.0 and True would find the kinds of 0 and 1.
    if type(entity) is not str or type(transition) is not str:
        raise TypeError(f"trace entity and transition are not strs: {entity!r}, {transition!r}")
    for name, value in fields.items():
        if name == "t_ns":
            raise ValueError("trace field t_ns is each record's time, not a field of its own")
        if (value is not FRAME or name != "frame") and type(value) not in (int, str):
            raise TypeError(f"trace field {name} is not an int or a str: {value!r}")
    key = (entity, transition, tuple(fields.items()))
    k = _IDS.get(key)
    if k is None:
        k = _IDS[key] = len(KINDS)
        KINDS.append(Kind(entity, transition, fields))
    return k


class Trace:
    """A run's records in columns (see the module notes). Writers append with
    `add`, or `add_frame` for a kind that carries a frame id; readers iterate
    over record dicts."""

    __slots__ = ("times", "kinds", "frames")

    def __init__(self):
        self.times: list[int] = []
        self.kinds: list[int] = []
        self.frames: list[int] = []

    def add(self, t: int, kind_id: int) -> None:
        self.times.append(t)
        self.kinds.append(kind_id)

    def add_frame(self, t: int, kind_id: int, frame: int) -> None:
        self.times.append(t)
        self.kinds.append(kind_id)
        self.frames.append(frame)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        frames = iter(self.frames)
        for t, k in zip(self.times, self.kinds):
            kd = KINDS[k]
            yield kd.record(t, next(frames) if kd.framed else None)

    def __eq__(self, other):
        if isinstance(other, Trace) and (self.kinds == other.kinds and self.times == other.times
                                         and self.frames == other.frames):
            return True
        # Other columns may read back as equal records too, through kinds
        # whose records agree (a FRAME field and a constant one).
        if isinstance(other, (Trace, list)):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} records>"
