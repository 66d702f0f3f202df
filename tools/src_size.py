"""Count the lines of ``src/locfield``, module by module.

Run from the repository root::

    python3 tools/src_size.py
    python3 tools/src_size.py --against HEAD~1

For each module it prints the total lines, the code lines and the
docstring-plus-comment lines, told apart by :mod:`tokenize`: a line
counts as code if it carries any token outside comments and docstrings
(string statements), as docstring-or-comment if it carries only those,
and as neither if it is blank.  It also prints the number of public
names, ``len(locfield.__all__)``, read from the literal list in
``__init__.py``.

With ``--against REV`` it reads the same files of that git revision
(``git show``) and prints its numbers beside the tree's, the change,
and what the settable interface gained and lost against REV: the
parameters of the functions both have, the ``add_argument`` options
(flags), the keys of ``cli._CONFIG_KEYS``, the fields of the
dataclasses and NamedTuples both have, and the module-level names
(functions, classes and constants).
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/locfield"
# the kinds of interface that --against compares
KINDS = ("parameters", "options", "config keys", "fields", "module names")
# tokens that carry no code
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def line_counts(text: str) -> tuple:
    """(total, code, docstring-and-comment) lines of Python source."""
    code, notes = set(), set()
    previous = tokenize.NEWLINE
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for k, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            notes.update(lines)
        elif tok.type == tokenize.STRING and previous in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT) and (
                tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            notes.update(lines)  # a string statement: a docstring
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.type
    return len(text.splitlines()), len(code), len(notes - code)


def public_names(init_text: str) -> int:
    """The length of the literal ``__all__`` list of ``__init__.py``."""
    for node in ast.parse(init_text).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return len(ast.literal_eval(node.value))
    raise ValueError("no literal __all__ in __init__.py")


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    return (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                for d in decorators)
            or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                   for b in node.bases))


def interface(name: str, text: str) -> dict:
    """The settable interface of a module, as sets of labels by kind:
    "parameters", each function's ``module:function(parameter)`` by
    qualified name; "options", the first argument of every
    ``add_argument`` call; "config keys", the members of a literal
    ``_CONFIG_KEYS``; "fields", each dataclass and NamedTuple field as
    ``module:Class.field``; and "module names", the functions, classes
    and assigned names at module level, as ``module:name``."""
    found = {kind: set() for kind in KINDS}
    tree = ast.parse(text)
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [node] if isinstance(node, (
                       ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   else [])
        for t in targets:
            label = getattr(t, "id", getattr(t, "name", None))
            if label is not None:
                found["module names"].add(f"{name}:{label}")
            if label == "_CONFIG_KEYS":
                found["config keys"] |= set(ast.literal_eval(node.value))

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                found["parameters"] |= {
                    f"{name}:{prefix}{child.name}({p.arg})"
                    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                              *filter(None, (a.vararg, a.kwarg)))}
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_record(child):
                    found["fields"] |= {
                        f"{name}:{prefix}{child.name}.{f.target.id}"
                        for f in child.body if isinstance(f, ast.AnnAssign)
                        and isinstance(f.target, ast.Name)}
                visit(child, f"{prefix}{child.name}.")
            else:
                if (isinstance(child, ast.Call)
                        and getattr(child.func, "attr", None) == "add_argument"
                        and child.args
                        and isinstance(child.args[0], ast.Constant)):
                    found["options"].add(child.args[0].value)
                visit(child, prefix)

    visit(tree, "")
    return found


def tree_sources() -> dict:
    """{module file name: source} of the working tree."""
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def rev_sources(rev: str) -> dict:
    """{module file name: source} at a git revision."""
    def git(*args):
        return subprocess.run(("git", *args), cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {n: git("show", f"{rev}:{PACKAGE}/{n}")
            for n in sorted(names) if n.endswith(".py")}


def table(sources: dict) -> dict:
    """{module: (total, code, docstring-and-comment)}, with a "src/" total."""
    rows = {name: line_counts(text) for name, text in sources.items()}
    rows["src/"] = tuple(map(sum, zip(*rows.values())))
    return rows


def interface_changes(old: dict, new: dict) -> dict:
    """{kind: (added, removed)} of the interface between the sources old
    and new; parameters and fields only of the functions and classes
    that both have, so that a function or class that comes or goes shows
    once, as a module name."""
    sides = []
    for sources in (old, new):
        found = {kind: set() for kind in KINDS}
        for name, text in sources.items():
            for kind, labels in interface(name, text).items():
                found[kind] |= labels
        sides.append(found)
    old_found, new_found = sides
    changes = {}
    for kind in KINDS:
        a, b = old_found[kind], new_found[kind]
        if kind in ("parameters", "fields"):
            owners = ({_owner(x) for x in a} & {_owner(x) for x in b})
            a = {x for x in a if _owner(x) in owners}
            b = {x for x in b if _owner(x) in owners}
        changes[kind] = sorted(b - a), sorted(a - b)
    return changes


def _owner(label: str) -> str:
    """The function or class of a parameter or field label."""
    return label.partition("(")[0] if label.endswith(")") else \
        label.rpartition(".")[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="a git revision to compare with")
    args = parser.parse_args(argv)
    new = tree_sources()
    rows = table(new)
    head = f"{'module':<14}{'lines':>7}{'code':>7}{'doc+cmt':>9}"
    if args.against is None:
        print(head)
        for name, (total, code, notes) in rows.items():
            print(f"{name:<14}{total:>7}{code:>7}{notes:>9}")
        print(f"public names (locfield.__all__): "
              f"{public_names(new['__init__.py'])}")
        return 0
    old = rev_sources(args.against)
    old_rows = table(old)
    print(f"{head}   | {args.against}: lines code doc+cmt | change")
    for name in dict.fromkeys([*old_rows, *rows]):
        a, b = old_rows.get(name, (0, 0, 0)), rows.get(name, (0, 0, 0))
        print(f"{name:<14}{b[0]:>7}{b[1]:>7}{b[2]:>9}   | "
              f"{a[0]:>7}{a[1]:>5}{a[2]:>8} | "
              + " ".join(f"{y - x:+d}" for x, y in zip(a, b)))
    print(f"public names (locfield.__all__): "
          f"{public_names(new['__init__.py'])} "
          f"({public_names(old['__init__.py'])} at {args.against})")
    for kind, (added, removed) in interface_changes(old, new).items():
        print(f"{kind} added: " + (", ".join(added) or "none"))
        print(f"{kind} removed: " + (", ".join(removed) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
