"""Imports between secel modules point one way only, down the layer order;
the protocol's own tables agree with each other and with its code.

Function-local imports count too: they are parsed, not executed.
"""

import ast
import dataclasses
import random
from collections.abc import Iterator
from fnmatch import fnmatch
from pathlib import Path
from unittest import mock

import secel
import secel.protocol as protocol
from secel.protocol import (
    FIELD_KINDS,
    MESSAGE_KINDS,
    SENDERS,
    VERIFICATION_STEPS,
    GroupArith,
    ParticipantNode,
    RoundSpec,
    ScalarArith,
    run_rounds,
)
from secel.simnet import Multicast, Simulator
from test_golden import SCENARIOS

# lowest layer first; modules on one layer may not import each other
LAYERS = (
    ("errors",),
    ("algebra",),
    ("sharing", "maskmac"),
    ("group_variant",),
    ("simnet",),
    ("protocol",),
    ("fedlearn",),
    ("cli",),
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
FACADES = {"__init__", "__main__"}  # the package entry points may import anything

SRC = Path(secel.__file__).resolve().parent


def secel_imports(tree: ast.AST) -> set[str]:
    """Names of the secel modules a parsed module imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        elif isinstance(node, ast.ImportFrom) and node.module:  # from .x import y
            modules = [f"secel.{node.module}"]
        elif isinstance(node, ast.ImportFrom):  # from . import x
            modules = [f"secel.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("secel."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - FACADES
    assert modules == set(RANK)


def test_imports_only_point_down():
    upward = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in FACADES:
            continue
        for target in secel_imports(ast.parse(path.read_text())):
            if RANK[target] >= RANK[path.stem]:
                upward.append(f"{path.stem} -> {target}")
    assert upward == []


def test_function_local_imports_are_seen():
    source = "def f():\n    from .protocol import run_rounds\n    import secel.cli\n"
    assert secel_imports(ast.parse(source)) == {"protocol", "cli"}


def unused_imports(tree: ast.AST) -> list[str]:
    """Names a parsed module imports but never refers to."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_every_import_is_used():
    # __init__ imports only to re-export
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        names = unused_imports(ast.parse(path.read_text()))
        if names:
            unused[path.stem] = names
    assert unused == {}


def test_unused_import_check_sees_annotations_and_attributes():
    source = (
        "from __future__ import annotations\n"
        "import hashlib\nimport os.path\nfrom .algebra import A, B, C as D\n"
        "def f(x: A) -> None:\n    return hashlib.sha256(os.sep)\n"
    )
    assert unused_imports(ast.parse(source)) == ["B", "D"]


# the variant's whole difference lives in the arithmetic object RoundSpec builds
VARIANT_FREE = ("ParticipantNode", "AggregatorNode", "run_rounds")


def variant_reads(tree: ast.AST) -> dict[str, int]:
    """`.variant` attribute reads inside each top-level class or function named
    in VARIANT_FREE."""
    return {
        node.name: sum(
            isinstance(sub, ast.Attribute)
            and sub.attr == "variant"
            and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(node)
        )
        for node in tree.body
        if getattr(node, "name", None) in VARIANT_FREE
    }


def test_nodes_and_runner_never_read_the_variant():
    reads = variant_reads(ast.parse((SRC / "protocol.py").read_text()))
    assert reads == dict.fromkeys(VARIANT_FREE, 0)


def test_variant_read_check_sees_nested_reads_only_where_it_looks():
    source = (
        "class ParticipantNode:\n"
        "    def f(self):\n        return lambda: self.spec.variant\n"
        "def run_rounds(spec):\n    spec.variant = 'group'\n"
        "class RoundSpec:\n    def arith(self):\n        return self.variant\n"
    )
    assert variant_reads(ast.parse(source)) == {"ParticipantNode": 1, "run_rounds": 0}


# the arithmetic objects hold no state: a node's dealing state lives on the node
STATELESS = ("ScalarArith", "GroupArith")


def written(target: ast.AST) -> str | None:
    """The attribute of `self` that a store target writes, or an item of, if any."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def self_writes(tree: ast.AST) -> dict[str, list[str]]:
    """`method.attribute` for each write to an attribute of `self`, or to an item
    of one, outside `__init__` in each top-level class named in STATELESS."""
    return {
        cls.name: sorted(
            f"{method.name}.{written(sub)}"
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and method.name != "__init__"
            for sub in ast.walk(method)
            if isinstance(sub, (ast.Attribute, ast.Subscript))
            and isinstance(sub.ctx, ast.Store)
            and written(sub) is not None
        )
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in STATELESS
    }


def test_arith_objects_assign_to_self_only_in_init():
    writes = self_writes(ast.parse((SRC / "protocol.py").read_text()))
    assert writes == dict.fromkeys(STATELESS, [])


def test_self_write_check_sees_stores_and_items_only_where_it_looks():
    source = (
        "class GroupArith:\n"
        "    def __init__(self, spec):\n        self.spec = spec\n"
        "    def open_setup(self, node):\n        node.keypair = 1\n        self.keypair = 2\n"
        "    def deal(self, node):\n        self.pks[1] = self.n\n        self.n += 1\n"
        "class ParticipantNode:\n    def f(self):\n        self.x = 1\n"
    )
    assert self_writes(ast.parse(source)) == {
        "GroupArith": ["deal.n", "deal.pks", "open_setup.keypair"]
    }


# the arithmetic object owns the variant's field, codec and decode bound:
# RoundSpec reads the variant only to look it up and to check it, branches
# on it nowhere, and no one keeps a copy of what the object holds
def is_variant(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "variant"


def class_facts(tree: ast.AST, name: str) -> tuple[set[str], int, set[str]]:
    """For the top-level class `name`: the methods that read `.variant`, its
    `==`/`!=` tests on `.variant`, and the attributes of `self` it writes."""
    cls = next(node for node in tree.body if getattr(node, "name", None) == name)
    readers, tests, writes = set(), 0, set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for sub in ast.walk(method):
            if is_variant(sub) and isinstance(sub.ctx, ast.Load):
                readers.add(method.name)
            elif isinstance(sub, ast.Compare) and any(map(is_variant, [sub.left, *sub.comparators])):
                tests += sum(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops)
            elif isinstance(sub, (ast.Attribute, ast.Subscript)) and isinstance(sub.ctx, ast.Store):
                writes.add(written(sub))
    return readers, tests, writes - {None}


def test_the_variant_is_decided_once_and_its_pieces_kept_once():
    tree = ast.parse((SRC / "protocol.py").read_text())
    assert class_facts(tree, "RoundSpec")[:2] == ({"arith", "validate"}, 0)
    for node in ("ParticipantNode", "AggregatorNode"):
        assert not class_facts(tree, node)[2] & {"modulus", "codec"}, node
    for arith in STATELESS:
        assert "spec" not in class_facts(tree, arith)[2], arith


def test_class_facts_see_reads_tests_and_writes_of_the_named_class_only():
    source = (
        "class RoundSpec:\n"
        "    def codec(self):\n        return self.variant == 'group' != other.variant\n"
        "    def arith(self):\n        self.spec = self.variant in VARIANTS\n"
        "        self.table[1] = 2\n"
        "class GroupArith:\n    def __init__(self, spec):\n        self.codec = spec.variant\n"
    )
    tree = ast.parse(source)
    assert class_facts(tree, "RoundSpec") == ({"codec", "arith"}, 2, {"spec", "table"})
    assert class_facts(tree, "GroupArith") == ({"__init__"}, 0, {"codec"})


# a run builds its one arithmetic object in RoundSpec.validate and hands it to
# every node: no code outside RoundSpec builds another
ARITH_BUILDERS = ("arith", "ScalarArith", "GroupArith")


def arith_builds(trees: dict[str, ast.AST]) -> list[str]:
    """`module.scope` of each call outside RoundSpec's methods that builds an
    arithmetic object, by `.arith()` or by its class, once per call."""
    return sorted(
        f"{module}.{scope}"
        for module, tree in trees.items()
        for scope in sum(call_sites(tree, ARITH_BUILDERS).values(), [])
        if not scope.startswith("RoundSpec.")
    )


def test_only_round_spec_builds_an_arith():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert arith_builds(trees) == []


def test_arith_build_lint_sees_calls_outside_round_spec():
    source = (
        "class RoundSpec:\n    def codec(self):\n        return self.arith().codec\n"
        "class ParticipantNode:\n"
        "    def __init__(self, spec):\n        self.arith = spec.arith()\n"
        "def run_rounds(spec):\n    return GroupArith(spec), ScalarArith(spec).p, spec.arith\n"
    )
    assert arith_builds({"m": ast.parse(source)}) == [
        "m.ParticipantNode.__init__", "m.run_rounds", "m.run_rounds",
    ]


def test_setup_tables_match_the_dealing_rows_and_the_dealing_stores():
    spec = RoundSpec(n=3, t=2, length=1)
    node = ParticipantNode(1, spec, spec.validate(), random.Random(0))
    before = set(vars(node))
    node._reset_setup()
    created = set(vars(node)) - before
    tables = {
        kind: pairs for arith in (ScalarArith, GroupArith) for kind, pairs in arith.SETUP.items()
    }
    dealing_rows = {
        kind for kind, (_, _, _, handler) in MESSAGE_KINDS.items()
        if handler is ParticipantNode._on_setup
    }
    assert dealing_rows == set(tables)
    for kind, pairs in tables.items():
        phase, sender, fields, _ = MESSAGE_KINDS[kind]
        assert phase == "setup", kind
        assert sender is SENDERS["peer"], kind
        assert [name for name, *_ in fields] == [name for name, _ in pairs], kind
        for _, store in pairs:
            assert store in created and type(getattr(node, store)) is dict, (kind, store)
    for kind in ("aggregate", "abort"):
        assert MESSAGE_KINDS[kind][1] is SENDERS["aggregator"], kind


# the transcript digests a payload when a record is read: one resolver calls
# payload_digest, and the send path encodes nothing
SEND_PATH = ("Simulator.send", "Simulator.shared_body", "Simulator.broadcast")


def scopes(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(name, node) for each top-level function, `Class.method` and other
    top-level statement (named `<module>`) of a parsed module."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{fn.name}", fn) for fn in node.body
                if isinstance(fn, ast.FunctionDef)
            ]
        else:
            found.append((getattr(node, "name", "<module>"), node))
    return found


def call_sites(tree: ast.AST, names: tuple[str, ...]) -> dict[str, list[str]]:
    """For each name, the top-level functions and `Class.method`s of a parsed
    module that call it, plainly or as an attribute, once per call."""
    sites = {name: [] for name in names}
    for scope, node in scopes(tree):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in sites:
                    sites[called].append(scope)
    return sites


def test_a_payload_is_digested_in_one_place_and_the_send_path_encodes_nothing():
    sites = {"payload_digest": [], "canonical_json": []}
    for path in sorted(SRC.glob("*.py")):
        found = call_sites(ast.parse(path.read_text()), tuple(sites))
        for name, scopes in found.items():
            sites[name] += [f"{path.stem}.{scope}" for scope in scopes]
    assert sites["payload_digest"] == ["simnet.Records._record"]
    assert not {f"simnet.{scope}" for scope in SEND_PATH} & set(sites["canonical_json"])


def test_call_site_check_sees_methods_functions_and_attribute_calls():
    source = (
        "X = canonical_json(1)\n"
        "def f():\n    return lambda b: simnet.payload_digest(b)\n"
        "class Simulator:\n"
        "    def send(self, body):\n        canonical_json(body)\n        canonical_json(body)\n"
        "    def other(self):\n        return payload_digest\n"
    )
    assert call_sites(ast.parse(source), ("payload_digest", "canonical_json")) == {
        "payload_digest": ["f"],
        "canonical_json": ["<module>", "Simulator.send", "Simulator.send"],
    }


# The label hash feeds two definitions, a key's pad and the round's tag
# coefficients; every kernel reads those, so either can change alone.
LABEL_READERS = ["maskmac.pads", "maskmac.tag_coeffs"]


def reads_of(name: str, trees: dict[str, ast.AST]) -> list[str]:
    """`module.scope` (as `scopes` names it) of each read or import of `name`,
    plain or as an attribute, once per read, in the parsed modules."""
    found = []
    for module, tree in trees.items():
        for scope, node in scopes(tree):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name) and sub.id == name
                    or isinstance(sub, ast.Attribute) and sub.attr == name
                    or isinstance(sub, ast.ImportFrom)
                    and any(alias.name == name for alias in sub.names)
                ):
                    found.append(f"{module}.{scope}")
    return found


def test_only_the_pad_and_the_tag_definitions_read_the_label_hash():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert reads_of("label_coeffs", trees) == LABEL_READERS


def test_label_read_lint_sees_calls_aliases_and_imports():
    source = (
        "from .maskmac import label_coeffs, mask_vector\n"
        "__all__ = ['label_coeffs']\n"
        "def pads(key, r, l, p):\n    return [key * h % p for h in label_coeffs(r, l, p)]\n"
        "class Arith:\n"
        "    def verify(self, agg):\n        coeffs = maskmac.label_coeffs\n"
        "        return all(c1 == h for h, (c1, _) in zip(coeffs(0, len(agg), 7), agg))\n"
        "    def unmask(self, agg):\n        from .maskmac import label_coeffs as h\n"
        "        return h\n"
    )
    assert reads_of("label_coeffs", {"m": ast.parse(source)}) == [
        "m.<module>", "m.pads", "m.Arith.verify", "m.Arith.unmask",
    ]


# A field element is drawn by PrimeModulus alone, whose draws read randrange's
# stream; outside `algebra` (Miller-Rabin witnesses) and `fedlearn` (labels),
# no module reaches for randrange itself.
DRAWING_MODULES = ("protocol", "group_variant", "sharing", "maskmac", "simnet")


def test_field_draws_go_through_the_prime_modulus():
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in DRAWING_MODULES}
    assert reads_of("randrange", trees) == []


def test_randrange_lint_sees_calls_aliases_and_imports():
    source = (
        "from random import randrange\n"
        "def deal(rng, q):\n    return 1 + rng.randrange(q - 1)\n"
        "class Node:\n"
        "    def tamper(self, q):\n        draw = self.rng.randrange\n        return draw(q)\n"
        "    def fair(self, field):\n        return field.random_element(self.rng)\n"
        "X = randrange(5)\n"
    )
    assert reads_of("randrange", {"m": ast.parse(source)}) == [
        "m.<module>", "m.deal", "m.Node.tamper", "m.<module>",
    ]


# The candidate order is written once: each party keeps the round's order when
# the round begins, and the runner names the round's leader from the same order
# at its barriers, with no tally of whom the parties heard.
ORDER_READERS = ["protocol.ParticipantNode.begin_round", "protocol.run_rounds"]


def test_the_candidate_order_alone_names_the_leader():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert reads_of("candidate_order", trees) == ORDER_READERS
    assert reads_of("Counter", {"protocol": trees["protocol"]}) == []


def test_order_lint_sees_a_reader_on_each_turn_and_a_tally():
    source = (
        "from collections import Counter\n"
        "from .protocol import candidate_order\n"
        "class ParticipantNode:\n"
        "    def _turn(self, k):\n        return candidate_order(self.round_no, self.n)[k]\n"
        "def run_rounds(spec, parties):\n"
        "    claims = collections.Counter(p.leader for p in parties)\n"
        "    return protocol.candidate_order(0, spec.n), claims\n"
    )
    tree = {"m": ast.parse(source)}
    assert reads_of("candidate_order", tree) == [
        "m.<module>", "m.ParticipantNode._turn", "m.run_rounds",
    ]
    assert reads_of("Counter", tree) == ["m.<module>", "m.run_rounds"]


# Each round bound is stated by the module that owns it: the codec's reach by
# `FixedPointCodec.reach`, the group decode limit by `group_variant`'s
# DECODE_LIMIT, and the verification ticks by `ParticipantNode._set_clock`,
# the one reader of delay_max. protocol.py rebuilds none of them.
CLOCK_READERS = ["protocol.ParticipantNode._set_clock"]


def literal_shifts(trees: dict[str, ast.AST], left: int, right: int) -> list[str]:
    """`module.scope` of each literal `left << right` in the parsed modules."""
    found = []
    for module, tree in trees.items():
        for scope, node in scopes(tree):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift)
                    and isinstance(sub.left, ast.Constant) and sub.left.value == left
                    and isinstance(sub.right, ast.Constant) and sub.right.value == right
                ):
                    found.append(f"{module}.{scope}")
    return found


def bound_lint(trees: dict[str, ast.AST]) -> dict[str, list[str]]:
    """Where protocol restates a round bound, and every literal 2^32 shift."""
    protocol_only = {"protocol": trees["protocol"]}
    return {
        "Fraction": reads_of("Fraction", protocol_only),
        "decode_bound": [
            name for name, _, _ in definitions(trees["protocol"], "protocol")
            if name.endswith(".decode_bound")
        ],
        "delay_max": reads_of("delay_max", protocol_only),
        "1 << 32": literal_shifts(trees, 1, 32),
    }


def test_each_round_bound_is_stated_once():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert bound_lint(trees) == {
        "Fraction": [],
        "decode_bound": [],
        "delay_max": CLOCK_READERS,
        "1 << 32": ["group_variant.<module>"],
    }


def test_bound_lint_sees_each_restated_bound():
    protocol_source = (
        "from fractions import Fraction\n"
        "class GroupArith:\n"
        "    def __init__(self, spec):\n"
        "        if self.decode_bound(spec.n) > (1 << 32):\n            raise ValueError\n"
        "    def decode_bound(self, m):\n"
        "        return m * round(2 * Fraction(self.codec.clip_bound) * self.codec.scale) + 1\n"
        "class ParticipantNode:\n"
        "    def _set_clock(self, sim, base):\n        d = sim.config.delay_max\n"
        "    def _turn(self, sim, k):\n"
        "        sim.schedule_timer(self.id, sim.now + 2 * sim.config.delay_max + 1, 'lead')\n"
    )
    group_source = "LIMIT = 1 << 32\ndef bsgs(h, bound):\n    return bound > (1 << 32)\n"
    trees = {"protocol": ast.parse(protocol_source), "group_variant": ast.parse(group_source)}
    assert bound_lint(trees) == {
        "Fraction": ["protocol.<module>", "protocol.GroupArith.decode_bound"],
        "decode_bound": ["protocol.GroupArith.decode_bound"],
        "delay_max": ["protocol.ParticipantNode._set_clock", "protocol.ParticipantNode._turn"],
        "1 << 32": [
            "protocol.GroupArith.__init__", "group_variant.<module>", "group_variant.bsgs",
        ],
    }


# Other code hooks the simulator at three seams: tests inject bodies at
# `Simulator.send`, perfbench's PayloadBytes and Tracer wrap `Transcript.envelope`,
# and a reference event loop overrides `Simulator._push`. A shortcut around any
# of them would leave that code blind.
ROW_STORES = ("_rows", "records", "add")  # the transcript's rows and its other writer
QUEUE_STORES = ("_buckets", "_times", "heapq", "heappush")


def dotted(node: ast.AST) -> str:
    """`a.b.c` for a chain of attributes on a name; `?` stands for any other base."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "?")
    return ".".join(reversed(parts))


def chains(fn: ast.AST) -> set[str]:
    """The whole attribute chains and bare names a function refers to."""
    inner = {id(n.value) for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    return {
        dotted(n) for n in ast.walk(fn)
        if isinstance(n, (ast.Attribute, ast.Name)) and id(n) not in inner
    }


def seam_breaches(trees: dict[str, ast.AST]) -> list[str]:
    """How parsed modules step around the seams: a broadcast copy not sent by
    `self.send`; a `Simulator.send` that writes rows other than through
    `self.transcript.envelope` or enqueues other than through `self._push`; a
    row appended anywhere but `Transcript.envelope` (`Transcript.add` appends
    its keyword dict)."""
    breaches, row_writes = [], []
    for module, tree in trees.items():
        methods = [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ]
        for scope, fn in methods:
            calls = {dotted(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
            if (module, scope) == ("simnet", "Simulator.broadcast"):
                if "self.send" not in calls or calls - {"self.send", "self.shared_body", "sorted"}:
                    breaches.append(f"{scope} calls {sorted(calls)}")
            if (module, scope) == ("simnet", "Simulator.send"):
                for need in ("self.transcript.envelope", "self._push"):
                    if need not in calls:
                        breaches.append(f"{scope} never calls {need}")
                for name in sorted(chains(fn)):
                    part = set(name.split("."))
                    if part & set(QUEUE_STORES) or ("transcript" in part and part & set(ROW_STORES)):
                        breaches.append(f"{scope} reaches {name}")
            row_writes += [
                (scope, *(type(a).__name__ for a in node.args))
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and dotted(node.func).endswith(("_rows.append", "_rows.extend", "_rows.insert"))
            ]
    if row_writes != [("Transcript.add", "Name"), ("Transcript.envelope", "Tuple")]:
        breaches.append(f"rows written at {row_writes}")
    return breaches


def test_the_simulator_seams_other_code_hooks_are_the_only_paths():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert seam_breaches(trees) == []


def test_seam_check_sees_shortcuts_around_each_seam():
    honest = (
        "class Transcript:\n"
        "    def __init__(self):\n        self._rows = []\n"
        "    def add(self, **record):\n        self._rows.append(record)\n"
        "    def envelope(self, rtype, env, t):\n        self._rows.append((rtype, env.src, t))\n"
        "class Simulator:\n"
        "    def send(self, src, dst, body):\n"
        "        self.transcript.envelope('send', body, t=0)\n        self._push(1, body)\n"
        "    def broadcast(self, src, dsts, body):\n"
        "        with self.shared_body(body):\n"
        "            for dst in sorted(dsts):\n                self.send(src, dst, body)\n"
    )
    assert seam_breaches({"simnet": ast.parse(honest)}) == []
    shortcuts = (
        honest.replace("self.transcript.envelope('send', body, t=0)", "rows = self.transcript._rows")
        .replace("self._push(1, body)", "heapq.heappush(self._times, 1)")
        .replace("self.send(src, dst, body)", "self._push(1, body)")
    ) + "class Node:\n    def act(self, t):\n        t._rows.extend([(1,)])\n"
    assert seam_breaches({"simnet": ast.parse(shortcuts)}) == [
        "Simulator.send never calls self.transcript.envelope",
        "Simulator.send never calls self._push",
        "Simulator.send reaches heapq.heappush",
        "Simulator.send reaches self._times",
        "Simulator.send reaches self.transcript._rows",
        "Simulator.broadcast calls ['self._push', 'self.shared_body', 'sorted']",
        "rows written at [('Transcript.add', 'Name'), ('Transcript.envelope', 'Tuple'), "
        "('Node.act', 'List')]",
    ]


# who may send a kind to whom is stated in MESSAGE_KINDS alone, every node
# receives by one rule, and a sealed link picks its key through
# ParticipantNode.link_key alone (GroupArith.finish_setup derives every
# channel key ahead of the reuse rounds)
NODE_CLASSES = ("ParticipantNode", "AggregatorNode")
SENDER_STATE = {
    "self.leader", "self.peers", "self.spec.n", "self.spec.participant_ids", "AGGREGATOR_ID",
}
CHAN_KEY_CALLERS = ["GroupArith.finish_setup", "ParticipantNode.link_key"]


def sender_checks(tree: ast.AST) -> list[str]:
    """Each comparison in an `_on_*` handler of a node class of the sender,
    `env.src` or a name bound to it, with the leader, the peers, the
    participant ids or AGGREGATOR_ID."""
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in NODE_CLASSES):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_on_")):
                continue
            senders = {"env.src"}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        senders |= {
                            name.id for name, value in pairs
                            if isinstance(name, ast.Name) and dotted(value) in senders
                        }
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    operands = {dotted(o) for o in (node.left, *node.comparators)}
                    if operands & senders and operands & SENDER_STATE:
                        found.append(f"{fn.name}: {ast.unparse(node)}")
    return found


def receiver(handler) -> str:
    """The node class whose method a kind's handler is."""
    return handler.__qualname__.split(".")[0]


def test_handlers_leave_sender_checks_and_key_choices_to_one_place_each():
    for *_, handler in MESSAGE_KINDS.values():
        assert handler.__name__.startswith("_on_"), handler
        assert getattr(getattr(protocol, receiver(handler)), handler.__name__) is handler
    tree = ast.parse((SRC / "protocol.py").read_text())
    assert sender_checks(tree) == []
    assert sorted(call_sites(tree, ("chan_key",))["chan_key"]) == CHAN_KEY_CALLERS


def test_every_node_receives_by_the_one_rule():
    # one code object, bound as a function of each class's own, so each role
    # can be timed apart; the aggregator's kind is routed by the table too
    participant, aggregator = ParticipantNode.on_message, protocol.AggregatorNode.on_message
    assert participant is not aggregator and participant.__code__ is aggregator.__code__
    assert receiver(MESSAGE_KINDS["submission"][3]) == "AggregatorNode"


def test_sender_check_lint_sees_direct_aliased_and_membership_checks():
    source = (
        "class ParticipantNode:\n"
        "    def _on_a(self, sim, env):\n        if env.src != self.leader:\n            return\n"
        "    def _on_b(self, sim, env):\n        leader = env.src\n"
        "        if leader not in self.peers:\n            return\n"
        "    def _on_c(self, sim, env):\n        src, body = env.src, env.body\n"
        "        return AGGREGATOR_ID == src\n"
        "    def _on_d(self, sim, env):\n        return self.leader == self.id\n"
        "    def on_message(self, sim, env):\n        return env.src == self.leader\n"
        "class AggregatorNode:\n"
        "    def _on_f(self, sim, env):\n        return 0 < env.src <= self.spec.n\n"
        "    def _on_g(self, sim, env):\n        return env.src in self.spec.participant_ids\n"
        "class Other:\n    def _on_e(self, env):\n        return env.src == self.leader\n"
    )
    assert sender_checks(ast.parse(source)) == [
        "_on_a: env.src != self.leader",
        "_on_b: leader not in self.peers",
        "_on_c: AGGREGATOR_ID == src",
        "_on_f: 0 < env.src <= self.spec.n",
        "_on_g: env.src in self.spec.participant_ids",
    ]


# the verification steps are VERIFICATION_STEPS alone: the verification
# budget is read once, where the first turn is fixed; each turn is scheduled
# by `_at`, a candidate's `lead` at its own request and its `rows` at `lead`,
# and the only other timer is the row read's second look on the same tick
TIMER_SETTERS = [
    "ParticipantNode._at", "ParticipantNode._lead", "ParticipantNode._read_rows",
    "ParticipantNode._turn",
]


def verification_budget_reads(tree: ast.AST) -> list[str]:
    """The scope of each read of a `budgets` mapping at the literal key
    "verification", by subscript or by `.get`, once per read."""
    found = []
    for scope, node in scopes(tree):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript):
                mapping, key = sub.value, sub.slice
            elif isinstance(sub, ast.Call) and dotted(sub.func).endswith(".get") and sub.args:
                mapping, key = sub.func.value, sub.args[0]
            else:
                continue
            if dotted(mapping).split(".")[-1] == "budgets" and (
                isinstance(key, ast.Constant) and key.value == "verification"
            ):
                found.append(scope)
    return found


def test_the_verification_timeline_is_set_from_one_table():
    tree = ast.parse((SRC / "protocol.py").read_text())
    assert verification_budget_reads(tree) == ["ParticipantNode._start_verification"]
    assert sorted(call_sites(tree, ("schedule_timer",))["schedule_timer"]) == TIMER_SETTERS
    # each step is a ParticipantNode handler
    assert all(
        getattr(ParticipantNode, handler.__name__) is handler
        for handler in VERIFICATION_STEPS.values()
    )


def test_timeline_lint_sees_budget_reads_and_timers_in_every_scope():
    source = (
        "SLOT = config.budgets['verification'] // 5\n"
        "class ParticipantNode:\n"
        "    def _start_verification(self, sim):\n"
        "        slot = sim.config.budgets['verification'] // 5\n"
        "        sim.schedule_timer(self.id, sim.now + slot, 'tally')\n"
        "    def _lead(self, sim):\n"
        "        budget = sim.config.budgets.get('verification')\n"
        "        sim.schedule_timer(self.id, sim.now + budget // 5, 'rows')\n"
        "        return sim.config.budgets['setup'], DEFAULT_BUDGETS['verification']\n"
    )
    tree = ast.parse(source)
    assert verification_budget_reads(tree) == [
        "<module>", "ParticipantNode._start_verification", "ParticipantNode._lead",
    ]
    assert call_sites(tree, ("schedule_timer",))["schedule_timer"] == [
        "ParticipantNode._start_verification", "ParticipantNode._lead",
    ]


# one declaration per message body: a body is checked on the one receive path
# where it becomes readable, plaintext by the receive rule and sealed as it
# opens, and a multicast's receivers share the verdict through one memo; every
# body a sender in src/ builds carries its kind's declared fields alone, and
# every declared field is read by the node that receives the kind
BODY_CHECKERS = ["protocol._open", "protocol._receiver", "protocol._shared"]
FIELD_KIND_OF = {text: kind for kind, (_, text) in FIELD_KINDS.items()}
# the goldens send every kind but round_done: here 4 and 5 stay out of M and
# are told the verdict, 4 with its recovered share, sealed
OUTSIDE_M = {
    "seed": 1, "n": 5, "t": 2, "l": 2, "s_min": 3, "share_loss": [4],
    "faults": [{"id": i, "phase": "masking", "action": "drop_outbound"} for i in (4, 5)],
}


def body_check_sites(trees: dict[str, ast.AST]) -> list[str]:
    """`module.scope` of each scope that names body_problem, to call it or to
    pass it on, or reads a multicast's memo, once per scope."""
    return sorted(
        f"{module}.{scope}"
        for module, tree in trees.items()
        for scope, node in scopes(tree)
        if "body_problem" in {part for chain in chains(node) for part in chain.split(".")}
        or any(isinstance(sub, ast.Attribute) and sub.attr == "memo" for sub in ast.walk(node))
    )


def stray_fields(kind: str, body) -> list[str]:
    """Where a body strays from its kind's fields: a required one it lacks, or
    one the kind does not declare. A field kind ending in "?" is optional."""
    fields = {name: FIELD_KIND_OF[text] for name, _, text in MESSAGE_KINDS[kind][2]}
    required = {name for name, field_kind in fields.items() if not field_kind.endswith("?")}
    keys = set(body) if isinstance(body, dict) else set()
    return [f"{kind} lacks {name}" for name in sorted(required - keys)] + [
        f"{kind} carries {name}" for name in sorted(keys - set(fields))
    ]


def field_reads(tree: ast.AST, name: str) -> set[str]:
    """The string constants the top-level class `name` reads: all of them in
    its body but the keys of dict displays, which build bodies."""
    cls = next(node for node in tree.body if getattr(node, "name", None) == name)
    built = {id(key) for node in ast.walk(cls) if isinstance(node, ast.Dict) for key in node.keys}
    return {
        node.value for node in ast.walk(cls)
        if isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in built
    }


def constant_sites(tree: ast.AST, values: tuple[str, ...]) -> list[str]:
    """The scopes of a parsed module that hold one of the string constants
    `values`, once per scope."""
    return [
        scope for scope, node in scopes(tree)
        if any(isinstance(sub, ast.Constant) and sub.value in values for sub in ast.walk(node))
    ]


def test_bodies_are_checked_where_they_become_readable():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert body_check_sites(trees) == BODY_CHECKERS
    # a failed body is refused in one place, which the two checkers call
    tree = trees["protocol"]
    assert constant_sites(tree, ("malformed_message", "malformed_aggregate")) == ["_refuse"]
    assert sorted(call_sites(tree, ("_refuse",))["_refuse"]) == ["_open", "_receiver"]
    # the simulator keeps the shared body and the receivers' memo, no verdict
    assert [f.name for f in dataclasses.fields(Multicast)] == ["slot", "data", "body", "memo"]


def test_every_body_a_sender_builds_carries_its_declared_fields_alone():
    built, send = [], Simulator.send

    def keep(sim, src, dst, kind, body, key=None):
        built.append((kind, body))
        send(sim, src, dst, kind, body, key=key)

    with mock.patch.object(Simulator, "send", keep):
        for doc in [*SCENARIOS.values(), OUTSIDE_M]:
            run_rounds(doc)
    assert {kind for kind, _ in built} == set(MESSAGE_KINDS)
    done = [body for kind, body in built if kind == "round_done"]
    assert {} in done and any("recovered" in body for body in done)
    assert sorted({problem for kind, body in built for problem in stray_fields(kind, body)}) == []


def test_every_declared_field_is_read_by_its_receiver():
    tree = ast.parse((SRC / "protocol.py").read_text())
    reads = {cls: field_reads(tree, cls) for cls in NODE_CLASSES}
    # _on_setup reads the fields its arith's SETUP row names, as pinned above
    dealt = {kind for arith in (ScalarArith, GroupArith) for kind in arith.SETUP}
    unread = [
        f"{kind}.{name}"
        for kind, (_, _, fields, handler) in MESSAGE_KINDS.items() if kind not in dealt
        for name, *_ in fields
        if name not in reads[receiver(handler)]
    ]
    assert unread == []


def test_body_lints_see_stray_checks_fields_and_reads():
    source = (
        "def check(env):\n    return memoize(env, body_problem)\n"
        "def keep(slot):\n    return slot.memo\n"
        "class ParticipantNode:\n"
        "    def on_message(self, env):\n        return body_problem(env.body, (), self)\n"
        "    def _on_result(self, env):\n        protocol.body_problem(env.body, (), self)\n"
        "        return env.body['a'], env.body.get('b'), {'c': 1}\n"
        "    def _on_commit(self, env):\n        return env.body['body_problem']\n"
    )
    tree = ast.parse(source)
    assert body_check_sites({"m": tree}) == [
        "m.ParticipantNode._on_result", "m.ParticipantNode.on_message", "m.check", "m.keep",
    ]
    assert field_reads(tree, "ParticipantNode") == {"a", "b", "body_problem"}
    assert constant_sites(tree, ("body_problem", "b")) == [
        "ParticipantNode._on_result", "ParticipantNode._on_commit",
    ]
    assert stray_fields("aggregate", {"m": [1], "failed": []}) == [
        "aggregate lacks c", "aggregate carries failed",
    ]
    assert stray_fields("result", {"sum": [], "m": []}) == []  # `recovered` is optional
    assert stray_fields("share_resp_fb", {"self": None}) == ["share_resp_fb lacks need"]


# every field kind and sender rule is there for a message kind: one that no
# MESSAGE_KINDS entry names cannot outlive the kinds that used it
def unnamed_entries(kinds: dict, field_kinds: dict, senders: dict) -> list[str]:
    """The entries of `field_kinds` and `senders` that no entry of the
    resolved message-kind table `kinds` names."""
    tests = {test for _, _, fields, _ in kinds.values() for _, test, _ in fields}
    rules = {rule for _, rule, _, _ in kinds.values()}
    return [f"field kind {kind}" for kind, (test, _) in field_kinds.items() if test not in tests] + [
        f"sender rule {name}" for name, rule in senders.items() if rule not in rules
    ]


def test_every_field_kind_and_sender_rule_is_named_by_a_message_kind():
    assert unnamed_entries(MESSAGE_KINDS, FIELD_KINDS, SENDERS) == []


def test_unnamed_entry_lint_sees_a_field_kind_and_a_sender_rule_left_behind():
    field_kinds = {**FIELD_KINDS, "hex": (lambda v, node: True, "a hex string")}
    senders = {**SENDERS, "elector": lambda src, node: True}
    assert unnamed_entries(MESSAGE_KINDS, field_kinds, senders) == [
        "field kind hex", "sender rule elector",
    ]
    # kinds gone leave behind the field kinds and sender rules only they named
    kinds = {
        kind: entry for kind, entry in MESSAGE_KINDS.items()
        if kind not in ("submission", "result", "round_done")
    }
    assert unnamed_entries(kinds, FIELD_KINDS, SENDERS) == [
        "field kind int<p>?", "field kind sum", "sender rule participant",
    ]


# what no production caller reaches goes, unless it is kept here for a reason;
# patterns match `module.name`, `module.Class.method` and `...(param=)`
KEEP = {
    "protocol.RoundSpec.field_modulus": "criterion 1's oracle reads the spec's field",
    "sharing.deal_direct": "criterion 5's reference dealing",
    "algebra.SymBivarPoly.random(secret=)": "criterion 5 pins each direct dealer's secret",
    "protocol.*._start_*": "on_phase_start dispatches them by getattr on the phase name",
    "cli.main(argv=)": "the console script passes none; a caller embedding the CLI passes its own",
}


def definitions(tree: ast.AST, module: str) -> Iterator[tuple]:
    """(qualified name, node, enclosing class) for each top-level function and
    class of a parsed module and each method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, None
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{module}.{node.name}.{fn.name}", fn, node


def unreached(trees: dict[str, ast.AST]) -> list[str]:
    """Definitions no module names, and defaulted parameters no call passes.

    A definition is reached if its name is used as a name, an attribute or an
    import anywhere; dunder methods are reached implicitly. A parameter is
    passed by a call to a function of its name (its class's name, for
    `__init__`) that gives it by keyword or by position, or that spreads
    `*args` or `**kwargs`.
    """
    names, calls = set(), {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
            if isinstance(sub, ast.Call):
                func = sub.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                spread = any(isinstance(arg, ast.Starred) for arg in sub.args) or any(
                    kw.arg is None for kw in sub.keywords
                )
                calls.setdefault(called, []).append(
                    (len(sub.args), {kw.arg for kw in sub.keywords}, spread)
                )
    found = []
    for module, tree in trees.items():
        for qual, node, cls in definitions(tree, module):
            name = node.name
            if name not in names and not (name.startswith("__") and name.endswith("__")):
                found.append(qual)
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = cls is not None and not static  # self or cls is not passed in the call
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [
                (arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first
            ] + [
                (arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            callees = (cls.name, "__init__") if cls is not None and name == "__init__" else (name,)
            sites = [site for callee in callees for site in calls.get(callee, [])]
            for param, pos in params:
                if not any(
                    spread or param in keywords or (pos is not None and given > pos)
                    for given, keywords, spread in sites
                ):
                    found.append(f"{qual}({param}=)")
    return found


def test_everything_in_src_has_a_production_caller_or_a_kept_reason():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = unreached(trees)
    unkept = [qual for qual in found if not any(fnmatch(qual, pattern) for pattern in KEEP)]
    assert unkept == []
    stale = [pattern for pattern in KEEP if not any(fnmatch(qual, pattern) for qual in found)]
    assert stale == []  # a kept name that gained a caller leaves the list


def test_unreached_check_sees_names_params_and_constructors():
    source = (
        "def used(a, b=1, *, c=2):\n    return a\n"
        "def unused(x=0):\n    pass\n"
        "def spread(y=0):\n    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None):\n        self.size = size\n"
        "    def open(self, wide=False):\n        return self.size\n"
        "    @staticmethod\n    def make(kind=None):\n        return Box(kind)\n"
        "    def shut(self):\n        pass\n"
        "used(1, 2)\nBox(3).open()\nBox.make(kind=1)\nspread(*args)\n"
    )
    assert unreached({"m": ast.parse(source)}) == [
        "m.used(c=)", "m.unused", "m.unused(x=)", "m.Box.__init__(colour=)",
        "m.Box.open(wide=)", "m.Box.shut",
    ]
