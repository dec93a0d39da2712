"""Print each module's code lines, bytecode instructions and compile time,
and the package totals.

    python .github/code_budget.py

Run from the root of a source checkout. A code line is a line that holds
a token other than a comment, a blank line or a docstring. The
instructions are those of the module's compiled code objects, nested ones
included: a count that, unlike the compile time, does not move with the
host's load, only with the code and the Python version. The compile time
is the median of 21 ``compile()`` calls on the module's source. The
script reports and fails nothing.
"""

import ast
import dis
import io
import pathlib
import statistics
import time
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def instructions(code) -> int:
    """The bytecode instructions of ``code`` and of every code object in it."""
    return len(list(dis.get_instructions(code))) + sum(
        instructions(const) for const in code.co_consts if hasattr(const, "co_code"))


total_lines = total_instructions = total_ms = 0
for path in sorted(pathlib.Path("src/clipbench").glob("*.py")):
    source = path.read_text()
    lines = {n for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in SKIP for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    times = []
    for _ in range(21):
        start = time.perf_counter()
        code = compile(source, str(path), "exec")
        times.append(time.perf_counter() - start)
    ms = 1e3 * statistics.median(times)
    count = instructions(code)
    total_lines, total_ms = total_lines + len(lines), total_ms + ms
    total_instructions += count
    print(f"{path.name:16} {len(lines):5d} code lines {count:6d} instructions"
          f" {ms:7.2f} ms compile")
print(f"{'src/clipbench':16} {total_lines:5d} code lines {total_instructions:6d} instructions"
      f" {total_ms:7.2f} ms compile")
