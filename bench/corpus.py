"""Seeded synthetic corpora for the phkit benchmark, with their own ground truth.

Units are built from the tag set, patterns and vocabulary of the golden
corpus (``tests/data/golden.ann``), widened with more names, dates, verbs
and objects so that texts, element counts, triggers and heads vary. A few
units carry escaped markup characters, every document carries metadata
lines, and rule findings are planted by construction.

Everything a check compares against comes from the generator's own spec:
it writes inline, standoff and column bytes itself, counts tags, knows
which unit holds which planted finding, logs every perturbation between
two annotators, and recomputes kappa from its own labels. None of it
calls phkit, so a defect in phkit cannot hide in the reference.

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace

RESERVED = "[]()-\\"
_ESCAPES = {ord(c): "\\" + c for c in RESERVED}

# Codes a generated unit may plant, one finding each.
PLANTED_CODES = ("E001", "E003", "W010", "W020", "I040", "I041")
ERROR_CODES = frozenset({"E001", "E003"})
FORM_KINDS = ("SUB", "TEM", "LOC", "ADV", "COM")
PATTERNS = "SRLMV"
FORMS = "WPC"
END_MARKS = "。；！？"

# --- vocabulary (golden.ann, widened) ---------------------------------------

SURNAMES = "陈王李张刘赵孙周吴郑冯滕何罗高林"
GIVEN = ("某某", "某", "某甲", "某乙")
ROLES = ("被告人", "被害人", "证人", "岳父", "邻居", "同事")
DAY_PARTS = ("凌晨", "上午", "中午", "下午", "晚", "夜间", "")
PLACES = ("新房", "家中", "店铺", "小区", "工地", "河边", "大桥", "路口", "仓库")
SIDES = ("南侧", "北侧", "门口", "附近", "楼下", "后院")
ADV_TRIGGERS = ("因", "将", "持", "用", "驾驶", "向", "与", "对", "从", "把", "被", "为")
ADV_TRIGGERS_HEADED = ("多次(向)", "当场(用)", "再次(与)")
ADV_BODIES = ("家庭(矛盾)", "其", "刀", "砖头", "其(头部)", "电动三轮车", "木棍",
              "钱款(纠纷)", "琐事", "其头部", "铁锤(把手)")
ADV_WORDS = ("多次", "互相", "当场", "随后", "再次", "故意", "立即")
PRE_S = ("迁怒", "发生", "捅刺", "致", "抛", "逃离", "报警", "返回", "殴打", "抢夺",
         "拨打", "离开", "藏匿", "追赶", "拒绝")
PRE_M = ("谎(称)", "(骗)至", "互相(厮打)", "多次(击打)", "(撞)向", "当场(死亡)",
         "(拖)至", "用力(推)", "(扔)进", "随即(逃)走")
PRE_R = ("看了看", "打了打", "商量商量", "问了问", "推了推")
PRE_L = ("殴打抢劫", "威胁恐吓", "捆绑殴打", "搜查扣押")
PRE_V = ("是", "有", "为", "系")
COM_WORDS = ("争执", "地面", "尸", "手机", "现金", "其(头部)", "财物", "车辆")
COM_TRIGGERS = ("购买", "至", "到", "给", "往", "送")
COM_PHRASES = ("房屋", "大桥下的河中", "医院", "派出所", "其家中", "市场", "外地")
COM_CLAUSES = ("其死亡", "其受伤", "房屋倒塌", "车辆损毁", "双方受伤")
UNC_TEXTS = ("此后情况不明", "原文缺失", "记录模糊不清", "该段无法辨认")


def escape(text: str) -> str:
    return text.translate(_ESCAPES)


def _marked(s: str) -> tuple[str, tuple[int, int] | None]:
    """Split vocabulary notation ``a(b)c`` into text ``abc`` and head (1, 2)."""
    if "(" not in s:
        return s, None
    i = s.index("(")
    j = s.index(")")
    return s[:i] + s[i + 1 : j] + s[j + 1 :], (i, j - 1)


@dataclass(frozen=True)
class Elem:
    """One element: tag parts, optional trigger, body, heads as local offsets."""

    kind: str
    sub: str | None
    body: str
    head: tuple[int, int] | None = None
    trig: str | None = None
    trig_head: tuple[int, int] | None = None

    @property
    def tag(self) -> str:
        return f"{self.kind}-{self.sub}" if self.sub else self.kind

    @property
    def text(self) -> str:
        return (self.trig or "") + self.body


def _elem(kind: str, sub: str | None, body: str, trig: str | None = None) -> Elem:
    text, head = _marked(body)
    trig_text, trig_head = _marked(trig) if trig is not None else (None, None)
    return Elem(kind, sub, text, head, trig_text, trig_head)


# A unit is a list of pieces: gap strings and elements, in text order.
Unit = list


def unit_text(unit: Unit) -> str:
    return "".join(p if isinstance(p, str) else p.text for p in unit)


def unit_elements(unit: Unit) -> list[tuple[Elem, int]]:
    """Every element with its start offset in the unit text."""
    out = []
    pos = 0
    for p in unit:
        if not isinstance(p, str):
            out.append((p, pos))
        pos += len(p) if isinstance(p, str) else len(p.text)
    return out


def _inline_segment(text: str, head: tuple[int, int] | None) -> str:
    if head is None:
        return escape(text)
    s, e = head
    return escape(text[:s]) + "(" + escape(text[s:e]) + ")" + escape(text[e:])


def inline_line(unit: Unit) -> str:
    out = []
    for p in unit:
        if isinstance(p, str):
            out.append(escape(p))
            continue
        out.append("[" + p.tag + " ")
        if p.trig is not None:
            out.append(_inline_segment(p.trig, p.trig_head) + "-")
        out.append(_inline_segment(p.body, p.head) + "]")
    return "".join(out)


def _standoff_element(el: Elem, start: int) -> dict:
    rec: dict = {"kind": el.kind}
    if el.sub:
        rec["sub"] = el.sub
    rec["start"] = start
    rec["end"] = start + len(el.text)
    body_start = start
    if el.trig is not None:
        body_start = start + len(el.trig)
        rec["trig_start"] = start
        rec["trig_end"] = body_start
        if el.trig_head is not None:
            rec["trig_head_start"] = start + el.trig_head[0]
            rec["trig_head_end"] = start + el.trig_head[1]
    if el.head is not None:
        rec["head_start"] = body_start + el.head[0]
        rec["head_end"] = body_start + el.head[1]
    return rec


def _column_rows(unit: Unit) -> list[str]:
    text = unit_text(unit)
    btags = ["O"] * len(text)
    roles = ["O"] * len(text)
    for el, start in unit_elements(unit):
        for i in range(len(el.text)):
            btags[start + i] = ("B-" if i == 0 else "I-") + el.tag
        body_start = start
        if el.trig is not None:
            body_start = start + len(el.trig)
            for i in range(len(el.trig)):
                roles[start + i] = "T"
            if el.trig_head is not None:
                for i in range(*el.trig_head):
                    roles[start + i] = "TH"
        for i in range(len(el.body)):
            roles[body_start + i] = "B"
        if el.head is not None:
            for i in range(*el.head):
                roles[body_start + i] = "H"
    return [f"{c}\t{b}\t{r}" for c, b, r in zip(text, btags, roles)]


def char_labels(unit: Unit) -> list[str]:
    labels = ["O"] * len(unit_text(unit))
    for el, start in unit_elements(unit):
        for i in range(start, start + len(el.text)):
            labels[i] = el.kind
    return labels


@dataclass
class Doc:
    id: str
    meta: list[str]
    units: list[Unit]
    # Planted finding codes per unit, parallel to ``units``.
    plants: list[list[str]] = field(default_factory=list)

    def inline(self) -> str:
        lines = [f"#id: {self.id}", *self.meta, *(inline_line(u) for u in self.units)]
        return "\n".join(lines) + "\n"

    def standoff(self) -> str:
        rec: dict = {"id": self.id}
        if self.meta:
            rec["meta"] = list(self.meta)
        rec["units"] = [
            {
                "text": unit_text(u),
                "elements": [_standoff_element(el, s) for el, s in unit_elements(u)],
            }
            for u in self.units
        ]
        return json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n"

    def columns(self) -> str:
        lines = [f"# doc {self.id}", *("# meta\t" + m for m in self.meta)]
        for index, unit in enumerate(self.units):
            if index:
                lines.append("")
            lines.extend(_column_rows(unit))
        return "\n".join(lines) + "\n"

    def unit_line(self, index: int) -> int:
        """1-based source line of unit ``index`` in :meth:`inline`."""
        return 2 + len(self.meta) + index


# --- ground truth ------------------------------------------------------------


def stats_truth(docs: list[Doc]) -> dict:
    by_tag: Counter[str] = Counter()
    units = unc = 0
    for doc in docs:
        for unit in doc.units:
            units += 1
            els = [el for el, _ in unit_elements(unit)]
            if any(el.kind == "UNC" for el in els):
                unc += 1
            by_tag.update(el.tag for el in els)
    return {
        "units": units,
        "unc_units": unc,
        "elements": sum(by_tag.values()),
        "by_tag": dict(sorted(by_tag.items())),
    }


def findings_truth(docs: list[Doc], names: list[str]) -> Counter:
    """Planted findings as a multiset of (file name, source line, code)."""
    out: Counter = Counter()
    for doc, name in zip(docs, names):
        for index, codes in enumerate(doc.plants):
            for code in codes:
                out[(name, doc.unit_line(index), code)] += 1
    return out


def kappa(a: list[str], b: list[str]) -> float | None:
    """Cohen's kappa of two parallel label sequences (None if undefined)."""
    n = len(a)
    ca, cb = Counter(a), Counter(b)
    pe = sum(ca[k] * cb[k] for k in ca) / (n * n)
    if pe == 1.0:
        return None
    po = sum(x == y for x, y in zip(a, b)) / n
    return (po - pe) / (1 - pe)


# --- unit generator ------------------------------------------------------------


class Generator:
    """Draws units from a seeded random stream; never repeats a unit line."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.seen: set[str] = set()

    def name(self) -> str:
        r = self.rng
        return r.choice(SURNAMES) + r.choice(GIVEN)

    def date(self) -> str:
        r = self.rng
        return (f"{r.randint(2009, 2021)}年{r.randint(1, 12)}月{r.randint(1, 28)}日"
                + r.choice(DAY_PARTS))

    def sub(self) -> Elem:
        r = self.rng
        x = r.random()
        if x < 0.5:
            return _elem("SUB", "W", f"{r.choice(ROLES)}({self.name()})")
        if x < 0.85:
            return _elem("SUB", "W", self.name())
        if x < 0.93:
            return _elem("SUB", "W", r.choice(("两人", "其", "众人")))
        return _elem("SUB", "C", self.name() + "与" + self.name())

    def tem(self) -> Elem:
        if self.rng.random() < 0.8:
            return _elem("TEM", "W", self.date())
        return _elem("TEM", "P", self.date(), trig=self.rng.choice(("于", "在")))

    def loc(self) -> Elem:
        r = self.rng
        place, side = r.choice(PLACES), r.choice(SIDES)
        if r.random() < 0.6:
            body = f"其{place}({side})" if r.random() < 0.5 else place + side
            return _elem("LOC", "W", body)
        return _elem("LOC", "P", place + side, trig=r.choice(("在", "于")))

    def adv(self) -> Elem:
        r = self.rng
        if r.random() < 0.2:
            return _elem("ADV", "W", r.choice(ADV_WORDS))
        trig = r.choice(ADV_TRIGGERS_HEADED if r.random() < 0.1 else ADV_TRIGGERS)
        body = self.name() if r.random() < 0.2 else r.choice(ADV_BODIES)
        return _elem("ADV", "P", body, trig=trig)

    def pre(self, headless_m: bool = False) -> Elem:
        r = self.rng
        x = r.random()
        if headless_m:
            return _elem("PRE", "M", _marked(r.choice(PRE_M))[0])
        if x < 0.45:
            return _elem("PRE", "S", r.choice(PRE_S))
        if x < 0.75:
            return _elem("PRE", "M", r.choice(PRE_M))
        if x < 0.83:
            return _elem("PRE", "R", r.choice(PRE_R))
        if x < 0.92:
            return _elem("PRE", "L", r.choice(PRE_L))
        return _elem("PRE", "V", r.choice(PRE_V))

    def com(self) -> Elem:
        r = self.rng
        x = r.random()
        if x < 0.5:
            if r.random() < 0.3:
                return _elem("COM", "W", r.choice((self.name(), f"现金{r.randint(100, 99999)}元")))
            return _elem("COM", "W", r.choice(COM_WORDS))
        if x < 0.8:
            return _elem("COM", "P", r.choice(COM_PHRASES), trig=r.choice(COM_TRIGGERS))
        return _elem("COM", "C", r.choice(COM_CLAUSES))

    def escaped_text(self) -> str:
        r = self.rng
        n = r.randint(1, 999)
        return r.choice((f"(编号{n})", f"[附{n}]", f"{n}-{n + 1}号", f"第{n}\\页"))

    def _unit(self, plant: str | None) -> Unit:
        r = self.rng
        if plant is None and r.random() < 0.02:
            return [_elem("UNC", None, f"{r.choice(UNC_TEXTS)}{r.randint(1, 99)}处")]
        pieces: Unit = []
        if r.random() < 0.08:
            pieces.append("并")
        if r.random() < 0.3:
            pieces.append(self.tem())
            if r.random() < 0.5:
                pieces.append("，")
        sub = self.sub() if r.random() < 0.7 or plant == "I041" else None
        if sub is not None and plant != "I041":
            pieces.append(sub)
        if r.random() < 0.45:
            pieces.append(self.adv())
        if r.random() < 0.2:
            pieces.append(self.loc())
        pre = self.pre(headless_m=plant == "E003")
        pieces.append(pre.text if plant == "E001" else pre)
        if plant == "I041":
            pieces.append(sub)
        for _ in range(r.choice((0, 1, 1, 1, 2))):
            pieces.append(self.com())
        if plant == "W010":
            pieces.append(_elem("COM", "P", r.choice(COM_PHRASES)))
        elif plant == "W020":
            pieces.append(_elem("RAI", r.choice("WC"), f"岳父({self.name()})"))
        elif plant == "I040":
            pieces.append(_elem("COM", "P", r.choice(COM_PHRASES), trig=r.choice("把被")))
        if r.random() < 0.03:
            pieces.append(self.escaped_text())
        x = r.random()
        if x < 0.55:
            pieces.append("。")
        elif x < 0.9:
            pieces.append("，")
        return pieces

    def unit(self, plant: str | None = None) -> Unit:
        while True:
            unit = self._unit(plant)
            line = inline_line(unit)
            if line not in self.seen:
                self.seen.add(line)
                return unit

    def doc(self, doc_id: str, n_units: int, plant_share: float) -> Doc:
        r = self.rng
        meta = [
            "# source: synthetic",
            f"# annotator: {self.name()}",
            f"# batch: {r.randint(1, 500)}",
        ][: r.randint(1, 3)]
        units, plants = [], []
        for _ in range(n_units):
            plant = r.choice(PLANTED_CODES) if r.random() < plant_share else None
            units.append(self.unit(plant))
            plants.append([plant] if plant else [])
        return Doc(doc_id, meta, units, plants)

    def raw_line(self) -> tuple[str, list[int]]:
        """One raw paragraph and the positions of its hard boundaries."""
        r = self.rng
        text = ""
        hard = []
        for _ in range(r.randint(2, 5)):
            clauses = [unit_text(self._unit(None)).rstrip("，。") for _ in range(r.randint(1, 3))]
            text += "，".join(c for c in clauses if c) + r.choice(END_MARKS)
            if r.random() < 0.15:
                text += "”"
            hard.append(len(text) - 1)
        return text, hard[:-1]


# --- perturbation between two annotators --------------------------------------


@dataclass
class Perturbation:
    unit: int
    kind: str  # "sub", "kind", "move" or "drop"


def perturb(rng: random.Random, doc: Doc, share: float) -> tuple[Doc, list[Perturbation]]:
    """Annotator B's version of ``doc``: one change in about ``share`` of units.

    A change relabels one element (subtag or kind), moves its end boundary
    by one character, or drops it. Unit texts never change.
    """
    units = [list(u) for u in doc.units]
    log = []
    for index, unit in enumerate(units):
        slots = [i for i, p in enumerate(unit) if not isinstance(p, str) and p.kind != "UNC"]
        if not slots or rng.random() >= share:
            continue
        i = rng.choice(slots)
        el = unit[i]
        choice = rng.choice(("tag", "move", "drop"))
        if choice == "tag":
            if el.kind == "PRE" or el.kind == "RAI" or rng.random() < 0.5:
                letters = PATTERNS if el.kind == "PRE" else FORMS
                unit[i] = replace(el, sub=rng.choice([c for c in letters if c != el.sub]))
                log.append(Perturbation(index, "sub"))
            else:
                unit[i] = replace(el, kind=rng.choice([k for k in FORM_KINDS if k != el.kind]))
                log.append(Perturbation(index, "kind"))
            continue
        if choice == "move":
            nxt = unit[i + 1] if i + 1 < len(unit) else None
            if isinstance(nxt, str) and nxt:
                unit[i] = replace(el, body=el.body + nxt[0])
                unit[i + 1] = nxt[1:]
                log.append(Perturbation(index, "move"))
                continue
            if len(el.body) >= 2 and (el.head is None or el.head[1] <= len(el.body) - 1
                                      and el.head[1] - el.head[0] < len(el.body) - 1):
                unit[i] = replace(el, body=el.body[:-1])
                unit.insert(i + 1, el.body[-1])
                log.append(Perturbation(index, "move"))
                continue
        unit[i] = el.text
        log.append(Perturbation(index, "drop"))
    return Doc(doc.id, list(doc.meta), units), log


def agreement_truth(a: Doc, log: list[Perturbation]) -> dict:
    """Expected span counts for exact and head matching, from the log."""
    total = sum(len(unit_elements(u)) for u in a.units)
    changed = len(log)
    dropped = sum(p.kind == "drop" for p in log)
    relabelled = sum(p.kind == "kind" for p in log)
    return {
        "exact": {"matched": total - changed, "only_a": changed, "only_b": changed - dropped},
        "head": {
            "matched": total - dropped - relabelled,
            "only_a": dropped + relabelled,
            "only_b": relabelled,
        },
    }
