"""What the compiled engine puts in generated source: template text only.

A fused run's compiled function is built from source text, so program
text must never reach that text: a field name, a string constant or a
class name is read from the function's namespace, by a generated name.
Every run each program executes is compiled at its first dispatch;
here, profiled and not, each one's source is tokenized: no string,
no comment, and only names from the fixed set below (the templates',
the scaffolding's and Python's) or the generated-operand pattern.
"""

import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

from repro.benchmarks import get_benchmark
from repro.benchmarks.runner import compile_benchmark
from repro.core.profiler import HeapProfiler
from repro.mjava.compiler import compile_program
from repro.runtime.engine import create_vm
from repro.runtime.library import link

ROOT = Path(__file__).resolve().parents[2]

# The names a template, the stamp or the function around them may use.
FIXED_NAMES = {
    # Python
    "def", "return", "if", "elif", "else", "is", "not", "and", "or",
    "None", "False", "True", "abs", "len", "isinstance",
    # the function, its frame and its locals
    "fused_run", "frame", "pc", "stack", "locals", "locals_", "append", "pop",
    "obj", "value", "index", "arr", "data", "a", "b", "q",
    "fields", "barrier", "class_name",
    # the use stamp
    "trailer", "clock", "first_use_time", "last_use_time", "last_use_frame",
    "last_use_chain", "chain", "nested_frames",
    # VM plumbing and constants
    "vm", "heap", "program", "throw", "value_conforms", "is_subclass",
    "ArrayObject", "NPE", "ARITHMETIC", "OUT_OF_BOUNDS", "CLASS_CAST",
    "DIV_ZERO", "MOD_ZERO", "bounds_message", "cast_message",
}
OPERAND = re.compile(
    r"(value|values|field|npe|type_repr|cls_name|is_object|where|slot|target)_\d+\Z"
)
NUMBER = re.compile(r"(\d+|0xFFFF)\Z")
TOKEN_TYPES = {
    tokenize.NAME, tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE,
    tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _benchmark(name):
    bench = get_benchmark(name)
    return (lambda: compile_benchmark(bench, revised=False),
            list(bench.primary_args), bench.max_heap)


def _source_file(path, main_class, args, max_heap=None):
    source = (ROOT / path).read_text(encoding="utf-8")
    return (lambda: compile_program(link(source), main_class=main_class),
            args, max_heap)


PROGRAMS = {
    "db": lambda: _benchmark("db"),
    "euler": lambda: _benchmark("euler"),
    "exceptions": lambda: _source_file(
        "tests/fixtures/exceptions.mj", "Main", ["12", "4728"], 12288),
    "wordcount": lambda: _source_file(
        "examples/programs/wordcount.mj", "WordCount", ["12"]),
}


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_source_holds_no_program_text(name, profiled):
    program, args, max_heap = PROGRAMS[name]()
    profiler = HeapProfiler(interval_bytes=4096, last_use_depth=3) if profiled else None
    vm = create_vm(program(), max_heap=max_heap, profiler=profiler)
    vm.run(args)
    sources = [
        handler.source
        for handlers in vm._code_cache.values()
        for handler in handlers
        if hasattr(handler, "source")
    ]
    assert sources, "no run was compiled"
    for source in sources:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            assert token.type in TOKEN_TYPES, (tokenize.tok_name[token.type], source)
            if token.type == tokenize.NAME:
                assert token.string in FIXED_NAMES or OPERAND.match(token.string), (
                    token.string, source)
            elif token.type == tokenize.NUMBER:
                assert NUMBER.match(token.string), (token.string, source)


def test_token_types_cover_strings_on_this_python():
    """The check above is only as good as the tokenizer: a string or an
    f-string must come out as a token type it rejects."""
    for text in ("x = 'a'\n", 'x = f"{y}"\n', "x = 1  # note\n"):
        types = {t.type for t in tokenize.generate_tokens(io.StringIO(text).readline)}
        assert types - TOKEN_TYPES, (text, sys.version_info)
