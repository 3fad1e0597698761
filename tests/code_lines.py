"""Count the lines of Python source that are code: not blank, not a comment
and not part of a docstring (a string that stands alone as a statement).

    python tests/code_lines.py src/formred/*.py

prints the total over the files named.
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


if __name__ == "__main__":
    print(sum(code_lines(open(path).read()) for path in sys.argv[1:]))
