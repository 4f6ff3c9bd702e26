//! The `jack` benchmark: a parser-generator front end in MJ.
//!
//! Grammar symbols, productions and parse states travel through `Vector`s,
//! a `Hashtable` and a `Stack`; the tough casts sit on container
//! retrievals. This is the benchmark where the paper's `NoObjSens`
//! configuration degrades most (inspected statements grow 5.9–16.9×,
//! §6.3): without per-object container cloning every retrieval conflates
//! all containers' contents.

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class Symbol {
    String name;
    boolean terminal;
    Symbol(String name, boolean terminal) {
        this.name = name;
        this.terminal = terminal;
    }
}

class Production {
    Symbol lhs;
    Vector rhs;
    Production(Symbol lhs) {
        this.lhs = lhs;
        this.rhs = new Vector();
    }
    void addSymbol(Symbol s) {
        this.rhs.add(s);
    }
    Symbol symbolAt(int i) {
        return (Symbol) this.rhs.get(i);
    }
    int length() {
        return this.rhs.size();
    }
}

class Grammar {
    Vector productions;
    Hashtable symbolsByName;
    Grammar() {
        this.productions = new Vector();
        this.symbolsByName = new Hashtable();
    }
    Symbol internSymbol(String name, boolean terminal) {
        Symbol existing = (Symbol) this.symbolsByName.get(name);
        if (existing != null) {
            return existing;
        }
        Symbol fresh = new Symbol(name, terminal);
        this.symbolsByName.put(name, fresh);
        return fresh;
    }
    void addProduction(Production p) {
        this.productions.add(p);
    }
    Production productionAt(int i) {
        return (Production) this.productions.get(i);
    }
    int productionCount() {
        return this.productions.size();
    }
}

class GrammarReader {
    InputStream input;
    GrammarReader(InputStream input) {
        this.input = input;
    }
    Grammar read() {
        Grammar grammar = new Grammar();
        while (!this.input.eof()) {
            String line = this.input.readLine();
            int arrow = line.indexOf(":");
            String lhsName = line.substring(0, arrow);
            Symbol lhs = grammar.internSymbol(lhsName, false);
            Production prod = new Production(lhs);
            String rest = line.substring(arrow + 1, line.length());
            int space = rest.indexOf(" ");
            while (space > 0) {
                String symName = rest.substring(0, space);
                Symbol sym = grammar.internSymbol(symName, true);
                prod.addSymbol(sym);
                rest = rest.substring(space + 1, rest.length());
                space = rest.indexOf(" ");
            }
            grammar.addProduction(prod);
        }
        return grammar;
    }
}

class ParseState {
    Production production;
    int dot;
    ParseState(Production production, int dot) {
        this.production = production;
        this.dot = dot;
    }
}

class ParserGenerator {
    Grammar grammar;
    Stack work;
    Vector states;
    ParserGenerator(Grammar grammar) {
        this.grammar = grammar;
        this.work = new Stack();
        this.states = new Vector();
    }
    void generate() {
        int i = 0;
        while (i < this.grammar.productionCount()) {
            Production p = this.grammar.productionAt(i);
            this.work.push(new ParseState(p, 0));
            i = i + 1;
        }
        while (!this.work.isEmpty()) {
            ParseState state = (ParseState) this.work.pop();
            this.states.add(state);
            this.advance(state);
        }
    }
    void advance(ParseState state) {
        if (state.dot < state.production.length()) {
            Symbol next = state.production.symbolAt(state.dot);
            if (!next.terminal) {
                this.expand(next);
            }
            this.work.push(new ParseState(state.production, state.dot + 1));
        }
    }
    void expand(Symbol symbol) {
        int i = 0;
        while (i < this.grammar.productionCount()) {
            Production q = this.grammar.productionAt(i);
            if (q.lhs == symbol) {
                print("expand: " + symbol.name);
            }
            i = i + 1;
        }
    }
    ParseState stateAt(int i) {
        return (ParseState) this.states.get(i);
    }
    int stateCount() {
        return this.states.size();
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("grammar.jack");
        GrammarReader reader = new GrammarReader(in);
        Grammar grammar = reader.read();
        ParserGenerator generator = new ParserGenerator(grammar);
        generator.generate();
        int i = 0;
        while (i < generator.stateCount()) {
            ParseState state = generator.stateAt(i);
            Symbol head = state.production.lhs;
            print("state for: " + head.name);
            i = i + 1;
        }
        Symbol lookup = (Symbol) grammar.symbolsByName.get("start");
        if (lookup != null) {
            print("start symbol: " + lookup.name);
        }
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "jack",
        sources: vec![("jack.mj", SOURCE)],
    }
}

/// The ten tough-cast tasks (Table 3 rows jack-1 … jack-10).
pub fn casts() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "jack.mj",
        snippet,
    };
    vec![
        Task {
            id: "jack-1",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("return (Symbol) this.rhs.get(i);"),
            desired: vec![m("this.rhs.add(s);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 18,
            paper_trad: 79,
        },
        Task {
            id: "jack-2",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("ParseState state = (ParseState) this.work.pop();"),
            desired: vec![
                m("this.work.push(new ParseState(p, 0));"),
                m("this.work.push(new ParseState(state.production, state.dot + 1));"),
            ],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 57,
            paper_trad: 151,
        },
        Task {
            id: "jack-3",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("return (Production) this.productions.get(i);"),
            desired: vec![m("this.productions.add(p);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 18,
            paper_trad: 69,
        },
        Task {
            id: "jack-4",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("Symbol existing = (Symbol) this.symbolsByName.get(name);"),
            desired: vec![m("this.symbolsByName.put(name, fresh);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 18,
            paper_trad: 79,
        },
        Task {
            id: "jack-5",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("return (ParseState) this.states.get(i);"),
            desired: vec![m("this.states.add(state);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 57,
            paper_trad: 151,
        },
        Task {
            id: "jack-6",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("Symbol lookup = (Symbol) grammar.symbolsByName.get(\"start\");"),
            desired: vec![m("this.symbolsByName.put(name, fresh);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 35,
            paper_trad: 132,
        },
        // The remaining rows exercise the same retrievals from different
        // seeds, as in the paper's randomly-sampled cast set.
        Task {
            id: "jack-7",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("Symbol next = state.production.symbolAt(state.dot);"),
            desired: vec![m("this.rhs.add(s);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 35,
            paper_trad: 132,
        },
        Task {
            id: "jack-8",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("Production p = this.grammar.productionAt(i);"),
            desired: vec![m("grammar.addProduction(prod);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 35,
            paper_trad: 132,
        },
        Task {
            id: "jack-9",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("ParseState state = generator.stateAt(i);"),
            desired: vec![m("this.states.add(state);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 30,
            paper_trad: 79,
        },
        Task {
            id: "jack-10",
            benchmark: "jack",
            kind: TaskKind::ToughCast,
            seed: m("Symbol head = state.production.lhs;"),
            desired: vec![m("Production prod = new Production(lhs);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 57,
            paper_trad: 151,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn jack_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in casts() {
            let resolved = task.resolve(&b, &mut session);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }
}
