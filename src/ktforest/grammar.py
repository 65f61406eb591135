"""Parsing for mixed expressions: polynomials, generators, and trees.

The element grammar extends the polynomial grammar with generator labels:
`2*xi1*pi1 - (x+y)*eta1*pi`.  Factors multiply in the written order through
the graded product, so transcribed tables keep their intended signs no
matter how the source orders its factors.  Trees are written `V(a,b)` with
nesting, a bare label being the trivial tree.
"""

from __future__ import annotations

from typing import Dict, Optional

from .forest import AlgebraElement, Node, canonicalize_node, leaf, module_generator, node, tree_str
from .kt import check_hook_degree
from .poly import Poly, RingSpec, TokenCursor, parse_expression
from .resolution import GeneratorId, ModuleElement


class ParseError(ValueError):
    pass


class SymbolTable:
    """Resolves names to ring variables or generators."""

    def __init__(self, ring: RingSpec, generators: Dict[str, GeneratorId]):
        self.ring = ring
        self.generators = dict(generators)
        overlap = set(ring.names) & set(self.generators)
        if overlap:
            raise ParseError(f"names clash between variables and generators: {overlap}")

    def lookup(self, name: str):
        if name in self.ring.names:
            return ("var", self.ring.var_index(name))
        if name in self.generators:
            return ("gen", self.generators[name])
        raise ParseError(f"unknown name {name!r}")


def parse_element(text: str, symbols: SymbolTable) -> AlgebraElement:
    """An algebra element; malformed input raises ParseError."""
    ring = symbols.ring

    def factor(kind, value):
        if kind == "num":
            return AlgebraElement.scalar(Poly.const(ring, value))
        what, obj = symbols.lookup(value)
        if what == "var":
            return AlgebraElement.scalar(Poly.variable(ring, obj))
        if obj.module_degree < 0:
            return AlgebraElement.from_tree(ring, leaf(obj))
        return AlgebraElement.from_positive(ring, obj)

    return parse_expression(text, factor, AlgebraElement.scalar(Poly.const(ring, 1)),
                            ParseError)


def parse_module_element(text: str, symbols: SymbolTable) -> ModuleElement:
    """A module element: polynomial multiples of negative-degree generators.

    A scalar term, a positive factor or a product of trees raises ParseError.
    """
    return ModuleElement(symbols.ring, {module_generator(m): c for m, c in
                                        _parse_trivial_trees(text, symbols).terms.items()})


def _parse_trivial_trees(text: str, symbols: SymbolTable) -> AlgebraElement:
    """A module element as an algebra element on trivial trees; as
    `parse_module_element`, malformed input raises ParseError."""
    elem = parse_element(text, symbols)
    if any(m[1] or module_generator(m) is None for m in elem.terms):
        raise ParseError(f"not a module element: {text!r}")
    return elem


def parse_tree(text: str, symbols: SymbolTable) -> Optional[Node]:
    """Parse `V(a,b)` / nested / bare-label trees into a canonical node.

    The Koszul sign of reordering the children is dropped; None for a tree
    that vanishes.
    """
    return canonicalize_node(_parse_written_tree(text, symbols))[0]


def _parse_written_tree(text: str, symbols: SymbolTable) -> Node:
    """The tree as written, children in the written order."""
    cursor = TokenCursor(text, ParseError)
    peek, take = cursor.peek, cursor.take

    def decoration(name):
        what, obj = symbols.lookup(name)
        if what != "gen" or obj.module_degree >= 0:
            raise ParseError(f"tree decorations must be module generators: {name!r}")
        return obj

    def subtree():
        kind, val = take()
        if kind != "name":
            raise ParseError(f"expected a label or V(...), got {val!r}")
        if val == "V" and peek() == ("op", "("):
            take()
            children = [subtree()]
            while peek() == ("op", ","):
                take()
                children.append(subtree())
            if take() != ("op", ")"):
                raise ParseError("expected closing parenthesis in tree")
            if len(children) < 2:
                raise ParseError(f"a tree vertex needs at least two children in {text!r}")
            return node(children)
        return leaf(decoration(val))

    written = subtree()
    cursor.finish()
    return written


def parse_hook_table(lines, symbols: SymbolTable) -> dict:
    """Parse `V(a,b) -> value` lines into a table of trees to algebra
    elements on trivial trees, the hook values of `HookMap`.

    Keys are the trees as written, children in any order: `HookMap.set_value`
    brings each to its canonical form and applies the Koszul sign of the
    reordering.  A tree given on two lines is an error.
    """
    table = {}
    first_line = {}  # canonical tree -> line number
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "->" not in line:
                raise ParseError(f"hook line needs '->': {line!r}")
            tree_text, value_text = line.split("->", 1)
            node = _parse_written_tree(tree_text.strip(), symbols)
            value = _parse_trivial_trees(value_text.strip(), symbols)
            cnode, _sign = canonicalize_node(node)
            if cnode is None:
                if not value.is_zero():
                    raise ParseError(f"hook value on a vanishing tree: {line!r}")
                continue
            if cnode in first_line:
                raise ParseError(f"tree {tree_str(cnode)} already given "
                                 f"on line {first_line[cnode]}")
            check_hook_degree(cnode, value)
        except ValueError as exc:
            raise ParseError(f"line {number}: {exc}") from None
        first_line[cnode] = number
        table[node] = value
    return table
