"""Merged-model index and heuristic type resolution.

The passes see one ``Index`` built from every file's model: classes
by name, function definitions by (class, name), and the union of
type aliases. ``resolve_chain`` walks a normalized postfix chain
("ctx.results", "b[phase].allocBytes", "x.size()") through that
index the way name lookup would: locals, then parameters, then
captures, then enclosing-class members (including bases), then
member/element/return types step by step.

Resolution is best-effort: an unresolvable step yields "" and the
passes treat unknown types conservatively (each pass documents in
which direction it stays quiet). The clang frontend short-circuits
all of this by recording precise types in the model.

The lexer-level rules (wall-clock mentions, the source conventions)
read ``Index.source``: each file's raw text and token stream, read
once per run and never cached, so their findings cannot depend on
the model cache.
"""

from __future__ import annotations

import os
import re

from lexer import IDENT, PUNCT, STR, LexResult, Token, lex
from model import ClassModel, FileModel, FuncModel

_UNSIGNED = re.compile(
    r"\b(uint8_t|uint16_t|uint32_t|uint64_t|uintptr_t|size_t|"
    r"unsigned|uint_fast\d+_t|uint_least\d+_t)\b")

#: vector<T>, array<T, N>, deque<T>: operator[] yields T.
_ELEM = re.compile(
    r"\b(?:std::)?(?:vector|array|deque|span)<(.+?)(?:,[^<>]*)?>$")

_CHAIN_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|\[[^\[\]]*\]|\([^()]*\)|\.|->|::|<.*?>")


def strip_cv_ref(t: str) -> str:
    t = re.sub(r"\bconst\b|\bvolatile\b", "", t)
    return t.replace("&&", "").replace("&", "").strip().strip("*")


class Index:
    def __init__(self, models: list[FileModel], repo_root: str):
        self.models = models
        self.repo_root = repo_root
        self._sources: dict[str, tuple[str, LexResult]] = {}
        self.classes: dict[str, ClassModel] = {}
        self.class_path: dict[str, str] = {}
        #: (cls or "", name) -> [FuncModel]; name-only fallback map.
        self.funcs: dict[tuple[str, str], list[FuncModel]] = {}
        self.funcs_by_name: dict[str, list[FuncModel]] = {}
        self.func_path: dict[int, str] = {}
        self.aliases: dict[str, str] = {}
        for fm in models:
            for cm in fm.classes:
                self.classes.setdefault(cm.name, cm)
                self.class_path.setdefault(cm.name, fm.path)
            for fn in fm.functions:
                key = (fn.cls or "", fn.name)
                self.funcs.setdefault(key, []).append(fn)
                self.funcs_by_name.setdefault(fn.name, []).append(fn)
                self.func_path[id(fn)] = fm.path
            self.aliases.update(fm.aliases)

    def source(self, path: str) -> tuple[str, LexResult]:
        """(raw text, lexed tokens) of a scanned file."""
        if path not in self._sources:
            with open(os.path.join(self.repo_root, path), "rb") as f:
                raw = f.read().decode("utf-8", errors="replace")
            self._sources[path] = (raw, lex(raw))
        return self._sources[path]

    def path_of(self, fn: FuncModel) -> str:
        return self.func_path.get(id(fn), "")

    def resolve_alias(self, type_text: str) -> str:
        """Map through `using` aliases (transitively, bounded)."""
        t = strip_cv_ref(type_text)
        for _ in range(6):
            base = t.split("<")[0].replace("std::", "").strip()
            nxt = self.aliases.get(base) or self.aliases.get(t)
            if not nxt or nxt == t:
                return t
            t = strip_cv_ref(nxt)
        return t

    def is_unsigned(self, type_text: str) -> bool:
        if not type_text:
            return False
        t = self.resolve_alias(type_text)
        return bool(_UNSIGNED.search(t)) and "*" not in type_text

    def class_members(self, cls_name: str) \
            -> dict[str, str]:
        """name -> type for a class including its bases."""
        out: dict[str, str] = {}
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cm = self.classes.get(name)
            if not cm:
                continue
            for m in cm.members:
                out.setdefault(m.name, m.type)
            stack.extend(cm.bases)
        return out

    def method_ret(self, cls_name: str, method: str) -> str:
        for fn in self.funcs.get((cls_name, method), []):
            if fn.ret_type:
                return fn.ret_type
        cm = self.classes.get(cls_name)
        if cm:
            for base in cm.bases:
                r = self.method_ret(base, method)
                if r:
                    return r
        return ""

    def scope_type(self, fn: FuncModel, name: str) -> str:
        """Type of `name` as seen from inside fn ('' if unknown)."""
        for n, t in reversed(fn.locals):
            if n == name:
                return t
        for n, t in fn.params:
            if n == name:
                return t
        for n, t in fn.captures:
            if n == name:
                return t
        if fn.cls:
            members = self.class_members(fn.cls)
            if name in members:
                return members[name]
        return ""

    def resolve_chain(self, fn: FuncModel, chain: str) -> str:
        """Resolve the type of a normalized postfix chain."""
        if not chain:
            return ""
        m = re.match(r"(?:static_cast|const_cast|reinterpret_cast)"
                     r"<(.+?)>\(", chain)
        if m:
            return m.group(1)
        chain = re.sub(r"^this->", "", chain)
        toks = _CHAIN_TOKEN.findall(chain)
        if not toks:
            return ""
        # Qualified names (std::foo, Class::member): not resolvable
        # as value chains; bail unless it's a known-class static.
        cur = ""
        i = 0
        # First segment: identifier (maybe followed by call/index).
        if not re.match(r"[A-Za-z_]", toks[0]):
            return ""
        name = toks[0]
        i = 1
        if i < len(toks) and toks[i] == "::":
            return ""  # qualified: leave unresolved
        if i < len(toks) and toks[i].startswith("("):
            # Free/member-of-self call.
            cur = ""
            for f in self.funcs.get((fn.cls or "", name), []) + \
                    self.funcs_by_name.get(name, []):
                if f.ret_type:
                    cur = f.ret_type
                    break
            i += 1
        else:
            cur = self.scope_type(fn, name)
        while i < len(toks) and cur:
            t = toks[i]
            if t in (".", "->"):
                i += 1
                if i >= len(toks):
                    break
                field = toks[i]
                i += 1
                cls = strip_cv_ref(self.resolve_alias(cur))
                cls_base = cls.split("<")[0].replace("std::", "")
                is_call = i < len(toks) and toks[i].startswith("(")
                if is_call:
                    cur = self.method_ret(cls_base, field) or \
                        self.method_ret(cls, field)
                    i += 1
                else:
                    members = self.class_members(cls_base) or \
                        self.class_members(cls)
                    cur = members.get(field, "")
                continue
            if t.startswith("["):
                m2 = _ELEM.search(strip_cv_ref(
                    self.resolve_alias(cur)))
                cur = m2.group(1).strip() if m2 else ""
                i += 1
                continue
            if t.startswith("("):
                i += 1
                continue
            break
        return cur

    def chain_terminal(self, chain: str) -> str:
        """Last field/identifier name in a chain (for the semantic
        name heuristics)."""
        names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", chain)
        skip = {"static_cast", "const_cast", "reinterpret_cast",
                "std", "this"}
        names = [n for n in names if n not in skip]
        return names[-1] if names else ""

    def chain_base(self, chain: str) -> str:
        chain = re.sub(r"^this->", "", chain)
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", chain)
        return m.group(0) if m else ""


def enclosing(fm: FileModel, line: int) -> str:
    """Site prefix for a token: the innermost function whose body
    spans `line` (lambdas as ``<lambda>``), else ``<file>``."""
    best = None
    for fn in fm.functions:
        if fn.line <= line <= fn.end_line and \
                (best is None or fn.line >= best.line):
            best = fn
    if best is None:
        return "<file>"
    return re.sub(r"<lambda:\d+>", "<lambda>", best.name)


def call_sites(tokens: list[Token], names: set[str]):
    """(index, token) of every ``name(`` with ``name`` in `names`
    that is not a method call (``x.name(``, ``p->name(``)."""
    for i, tok in enumerate(tokens):
        if tok.kind != IDENT or tok.text not in names or \
                i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        if i and tokens[i - 1].text in (".", "->"):
            continue
        yield i, tok


def _brace_kind(stmt: list[Token]) -> str:
    """What a ``{`` at namespace scope opens, judged by the
    statement that precedes it."""
    texts = [t.text for t in stmt if t.kind != STR]
    if "namespace" in texts or \
            (len(stmt) == 2 and texts == ["extern"]):  # extern "C" {
        return "ns"
    if "(" not in texts:
        return "type" if {"class", "struct", "union",
                          "enum"} & set(texts) else "init"
    if ":" in texts[texts.index("("):] and \
            (stmt[-1].kind == IDENT or stmt[-1].text == ">"):
        return "member-init"  # Ctor() : a_{1}, b_{2} { ... }
    return "func"


def namespace_statements(tokens: list[Token]) -> list[list[Token]]:
    """Namespace-scope statements as token lists, brace
    initializers included; class and function bodies are skipped."""
    stmts: list[list[Token]] = []
    stack: list[str] = []
    cur: list[Token] = []
    for tok in tokens:
        p = tok.text if tok.kind == PUNCT else ""
        collecting = all(k in ("ns", "init") for k in stack)
        if p == "{":
            if not collecting:
                kind = "skip"
            elif stack and stack[-1] == "init":
                kind = "init"
            else:
                kind = _brace_kind(cur)
            stack.append(kind)
            if kind == "init":
                cur.append(tok)
            elif kind != "member-init":
                cur = []
        elif p == "}":
            kind = stack.pop() if stack else "ns"
            if kind in ("init", "member-init"):
                cur.append(tok)
            elif kind != "skip":
                cur = []
        elif not collecting:
            continue
        elif p == ";" and (not stack or stack[-1] == "ns"):
            if cur:
                stmts.append(cur)
            cur = []
        else:
            cur.append(tok)
    return stmts


_NOT_VARIABLES = {"typedef", "using", "class", "struct", "union",
                  "enum", "namespace", "template", "extern", "friend",
                  "static_assert"}


def namespace_variable(stmt: list[Token]) \
        -> tuple[list[Token], list[Token]] | None:
    """(declarator head, initializer) when a namespace-scope
    statement defines a variable; the head ends in its name.
    Functions, other declarations, paren-initialised variables and
    out-of-class member definitions (``T C::m = ...``) are not."""
    if stmt[0].kind != IDENT or stmt[0].text in _NOT_VARIABLES:
        return None
    split = next((i for i, t in enumerate(stmt)
                  if t.kind == PUNCT and t.text in ("=", "{")),
                 len(stmt))
    head = stmt[:split]
    while head and head[-1].text == "]":  # array extents
        head = head[:max(i for i, t in enumerate(head)
                         if t.text == "[")]
    if len(head) < 2 or head[-1].kind != IDENT or \
            head[-2].text == "::" or \
            any(t.text == "(" for t in head):
        return None
    return head, stmt[split:]
