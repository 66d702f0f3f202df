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
and the function parameters and ``add_argument`` options (flags) that
the tree has and REV has not, for the functions both have.
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


def interface(name: str, text: str) -> tuple:
    """({(module, function): parameter names}, {option flags}) of a
    module: every function's parameters by qualified name, and the first
    argument of every ``add_argument`` call."""
    params, options = {}, set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params[name, prefix + child.name] = {
                    p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                    *filter(None, (a.vararg, a.kwarg)))}
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                if (isinstance(child, ast.Call)
                        and getattr(child.func, "attr", None) == "add_argument"
                        and child.args
                        and isinstance(child.args[0], ast.Constant)):
                    options.add(child.args[0].value)
                visit(child, prefix)

    visit(ast.parse(text), "")
    return params, options


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


def added_interface(old: dict, new: dict) -> tuple:
    """The parameters that functions in both old and new gained, and the
    options new has and old has not."""
    old_params, old_options = {}, set()
    new_params, new_options = {}, set()
    for sources, params, options in ((old, old_params, old_options),
                                     (new, new_params, new_options)):
        for name, text in sources.items():
            p, o = interface(name, text)
            params.update(p)
            options |= o
    gained = sorted(f"{module}:{function}({arg})"
                    for (module, function), args in new_params.items()
                    if (module, function) in old_params
                    for arg in args - old_params[module, function])
    return gained, sorted(new_options - old_options)


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
    gained, options = added_interface(old, new)
    print("parameters added to existing functions: "
          + (", ".join(gained) or "none"))
    print("options added: " + (", ".join(options) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
