//! The `javac` benchmark: an expression-tree compiler front end in MJ.
//!
//! Reproduces the paper's Figure 5 situation at scale: "the code includes a
//! large number of Node subclasses used pervasively in the program,
//! resulting in large numbers for the traditional slicer" (§6.3). Each
//! subclass constructor writes a distinct opcode into `Node.op`; the
//! optimizer switches on `op` and downcasts. The safety of those downcasts
//! is a whole-program invariant over the constructor writes — exactly what
//! a thin slice from the `op` read reveals.

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r##"class Node {
    int op;
    Node(int op) {
        this.op = op;
    }
}

class AddNode extends Node {
    Node left;
    Node right;
    AddNode(Node left, Node right) {
        super(1);
        this.left = left;
        this.right = right;
    }
}

class SubNode extends Node {
    Node left;
    Node right;
    SubNode(Node left, Node right) {
        super(2);
        this.left = left;
        this.right = right;
    }
}

class MulNode extends Node {
    Node left;
    Node right;
    MulNode(Node left, Node right) {
        super(3);
        this.left = left;
        this.right = right;
    }
}

class DivNode extends Node {
    Node left;
    Node right;
    DivNode(Node left, Node right) {
        super(4);
        this.left = left;
        this.right = right;
    }
}

class NegNode extends Node {
    Node operand;
    NegNode(Node operand) {
        super(5);
        this.operand = operand;
    }
}

class ConstNode extends Node {
    int value;
    ConstNode(int value) {
        super(6);
        this.value = value;
    }
}

class VarNode extends Node {
    String name;
    VarNode(String name) {
        super(7);
        this.name = name;
    }
}

class AssignNode extends Node {
    VarNode target;
    Node rhs;
    AssignNode(VarNode target, Node rhs) {
        super(8);
        this.target = target;
        this.rhs = rhs;
    }
}

class CallNode extends Node {
    String callee;
    Vector arguments;
    CallNode(String callee) {
        super(9);
        this.callee = callee;
        this.arguments = new Vector();
    }
    void addArgument(Node arg) {
        this.arguments.add(arg);
    }
}

class BlockNode extends Node {
    Vector statements;
    BlockNode() {
        super(10);
        this.statements = new Vector();
    }
    void addStatement(Node stmt) {
        this.statements.add(stmt);
    }
}

class IfNode extends Node {
    Node condition;
    Node thenPart;
    IfNode(Node condition, Node thenPart) {
        super(11);
        this.condition = condition;
        this.thenPart = thenPart;
    }
}

class WhileNode extends Node {
    Node condition;
    Node body;
    WhileNode(Node condition, Node body) {
        super(12);
        this.condition = condition;
        this.body = body;
    }
}

class ExprParser {
    InputStream input;
    Hashtable variables;
    ExprParser(InputStream input) {
        this.input = input;
        this.variables = new Hashtable();
    }
    BlockNode parseProgram() {
        BlockNode block = new BlockNode();
        while (!this.input.eof()) {
            String line = this.input.readLine();
            Node stmt = this.parseStatement(line);
            block.addStatement(stmt);
        }
        return block;
    }
    Node parseStatement(String line) {
        int eq = line.indexOf("=");
        if (eq > 0) {
            String varName = line.substring(0, eq);
            VarNode target = new VarNode(varName);
            this.variables.put(varName, target);
            Node rhs = this.parseExpression(line.substring(eq + 1, line.length()));
            return new AssignNode(target, rhs);
        }
        int q = line.indexOf("?");
        if (q > 0) {
            Node cond = this.parseExpression(line.substring(0, q));
            Node then = this.parseExpression(line.substring(q + 1, line.length()));
            return new IfNode(cond, then);
        }
        int star = line.indexOf("@");
        if (star > 0) {
            Node cond2 = this.parseExpression(line.substring(0, star));
            Node body = this.parseExpression(line.substring(star + 1, line.length()));
            return new WhileNode(cond2, body);
        }
        return this.parseExpression(line);
    }
    Node parseExpression(String text) {
        int plus = text.indexOf("+");
        if (plus > 0) {
            Node l1 = this.parseExpression(text.substring(0, plus));
            Node r1 = this.parseExpression(text.substring(plus + 1, text.length()));
            return new AddNode(l1, r1);
        }
        int minus = text.indexOf("-");
        if (minus > 0) {
            Node l2 = this.parseExpression(text.substring(0, minus));
            Node r2 = this.parseExpression(text.substring(minus + 1, text.length()));
            return new SubNode(l2, r2);
        }
        int times = text.indexOf("*");
        if (times > 0) {
            Node l3 = this.parseExpression(text.substring(0, times));
            Node r3 = this.parseExpression(text.substring(times + 1, text.length()));
            return new MulNode(l3, r3);
        }
        int slash = text.indexOf("/");
        if (slash > 0) {
            Node l4 = this.parseExpression(text.substring(0, slash));
            Node r4 = this.parseExpression(text.substring(slash + 1, text.length()));
            return new DivNode(l4, r4);
        }
        int bang = text.indexOf("~");
        if (bang == 0) {
            return new NegNode(this.parseExpression(text.substring(1, text.length())));
        }
        int paren = text.indexOf("(");
        if (paren > 0) {
            CallNode call = new CallNode(text.substring(0, paren));
            call.addArgument(this.parseExpression(text.substring(paren + 1, text.length() - 1)));
            return call;
        }
        int digit = text.indexOf("#");
        if (digit == 0) {
            return new ConstNode(text.toInt());
        }
        VarNode v = (VarNode) this.variables.get(text);
        if (v != null) {
            return v;
        }
        return new VarNode(text);
    }
}

class Optimizer {
    int folded;
    Optimizer() {
        this.folded = 0;
    }
    Node simplify(Node n) {
        int op = n.op;
        if (op == 1) {
            AddNode add = (AddNode) n;
            Node sl = this.simplify(add.left);
            Node sr = this.simplify(add.right);
            return this.foldBinary(1, sl, sr);
        }
        if (op == 3) {
            MulNode mul = (MulNode) n;
            Node ml = this.simplify(mul.left);
            Node mr = this.simplify(mul.right);
            return this.foldBinary(3, ml, mr);
        }
        if (op == 9) {
            CallNode call = (CallNode) n;
            int i = 0;
            while (i < call.arguments.size()) {
                Node arg = (Node) call.arguments.get(i);
                this.simplify(arg);
                i = i + 1;
            }
            return call;
        }
        if (op == 11) {
            IfNode cond = (IfNode) n;
            Node simplified = this.simplify(cond.condition);
            return new IfNode(simplified, this.simplify(cond.thenPart));
        }
        if (op == 10) {
            BlockNode block = (BlockNode) n;
            int j = 0;
            while (j < block.statements.size()) {
                Node stmt = (Node) block.statements.get(j);
                this.simplify(stmt);
                j = j + 1;
            }
            return block;
        }
        return n;
    }
    Node foldBinary(int op, Node left, Node right) {
        if (left instanceof ConstNode && right instanceof ConstNode) {
            ConstNode cl = (ConstNode) left;
            ConstNode cr = (ConstNode) right;
            this.folded = this.folded + 1;
            if (op == 1) {
                return new ConstNode(cl.value + cr.value);
            }
            return new ConstNode(cl.value * cr.value);
        }
        if (op == 1) {
            return new AddNode(left, right);
        }
        return new MulNode(left, right);
    }
}

class Evaluator {
    Hashtable env;
    Evaluator() {
        this.env = new Hashtable();
    }
    int eval(Node n) {
        int op = n.op;
        if (op == 6) {
            ConstNode k = (ConstNode) n;
            return k.value;
        }
        if (op == 1) {
            AddNode addExpr = (AddNode) n;
            return this.eval(addExpr.left) + this.eval(addExpr.right);
        }
        if (op == 2) {
            SubNode subExpr = (SubNode) n;
            return this.eval(subExpr.left) - this.eval(subExpr.right);
        }
        if (op == 3) {
            MulNode mulExpr = (MulNode) n;
            return this.eval(mulExpr.left) * this.eval(mulExpr.right);
        }
        if (op == 5) {
            NegNode negExpr = (NegNode) n;
            return -this.eval(negExpr.operand);
        }
        if (op == 8) {
            AssignNode assign = (AssignNode) n;
            int value = this.eval(assign.rhs);
            this.env.put(assign.target.name, new ConstNode(value));
            return value;
        }
        if (op == 7) {
            VarNode ref = (VarNode) n;
            ConstNode bound = (ConstNode) this.env.get(ref.name);
            if (bound == null) {
                return 0;
            }
            return bound.value;
        }
        if (op == 10) {
            BlockNode blockExpr = (BlockNode) n;
            int last = 0;
            int i = 0;
            while (i < blockExpr.statements.size()) {
                last = this.eval((Node) blockExpr.statements.get(i));
                i = i + 1;
            }
            return last;
        }
        return 0;
    }
}

class TypeChecker {
    Vector errors;
    TypeChecker() {
        this.errors = new Vector();
    }
    void check(Node n) {
        int op = n.op;
        if (op == 8) {
            AssignNode assignStmt = (AssignNode) n;
            this.check(assignStmt.rhs);
            if (assignStmt.target == null) {
                this.errors.add("assignment without target");
            }
        }
        if (op == 11) {
            IfNode branch = (IfNode) n;
            this.check(branch.condition);
            this.check(branch.thenPart);
        }
        if (op == 12) {
            WhileNode loop = (WhileNode) n;
            this.check(loop.condition);
            this.check(loop.body);
        }
        if (op == 10) {
            BlockNode blockStmt = (BlockNode) n;
            int i = 0;
            while (i < blockStmt.statements.size()) {
                this.check((Node) blockStmt.statements.get(i));
                i = i + 1;
            }
        }
        if (op == 4) {
            DivNode divisor = (DivNode) n;
            this.check(divisor.left);
            this.check(divisor.right);
            if (divisor.right instanceof ConstNode) {
                ConstNode c = (ConstNode) divisor.right;
                if (c.value == 0) {
                    this.errors.add("division by constant zero");
                }
            }
        }
    }
    int errorCount() {
        return this.errors.size();
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("program.src");
        ExprParser parser = new ExprParser(in);
        BlockNode program = parser.parseProgram();
        TypeChecker checker = new TypeChecker();
        checker.check(program);
        print("errors: " + "" + checker.errorCount());
        Optimizer opt = new Optimizer();
        Node result = opt.simplify(program);
        print("folded: " + "" + opt.folded);
        if (result == null) {
            throw new RuntimeException("optimizer returned null");
        }
        Evaluator evaluator = new Evaluator();
        print("value: " + "" + evaluator.eval(result));
        print("done");
    }
}
"##;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "javac",
        sources: vec![("javac.mj", SOURCE)],
    }
}

/// The four tough-cast tasks (Table 3 rows javac-1 … javac-4).
///
/// Each cast `(XNode) n` in `Optimizer.simplify` is safe because `n.op`
/// matches the opcode only `XNode`'s constructor writes. Verifying that
/// invariant requires seeing *every* opcode write (any constructor could
/// have reused the opcode), so the desired set is all twelve `super(k)`
/// statements — "writes of opcodes in a large number of constructors,
/// which could be quickly inspected" (§6.3).
pub fn casts() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "javac.mj",
        snippet,
    };
    vec![
        Task {
            id: "javac-1",
            benchmark: "javac",
            kind: TaskKind::ToughCast,
            seed: m("AddNode add = (AddNode) n;"),
            desired: vec![
                m("super(1);"),
                m("super(2);"),
                m("super(3);"),
                m("super(4);"),
                m("super(5);"),
                m("super(6);"),
                m("super(7);"),
                m("super(8);"),
                m("super(9);"),
                m("super(10);"),
                m("super(11);"),
                m("super(12);"),
            ],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 57,
            paper_trad: 910,
        },
        Task {
            id: "javac-2",
            benchmark: "javac",
            kind: TaskKind::ToughCast,
            seed: m("MulNode mul = (MulNode) n;"),
            desired: vec![
                m("super(1);"),
                m("super(2);"),
                m("super(3);"),
                m("super(4);"),
                m("super(5);"),
                m("super(6);"),
                m("super(7);"),
                m("super(8);"),
                m("super(9);"),
                m("super(10);"),
                m("super(11);"),
                m("super(12);"),
            ],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 43,
            paper_trad: 853,
        },
        Task {
            id: "javac-3",
            benchmark: "javac",
            kind: TaskKind::ToughCast,
            seed: m("CallNode call = (CallNode) n;"),
            desired: vec![
                m("super(1);"),
                m("super(2);"),
                m("super(3);"),
                m("super(4);"),
                m("super(5);"),
                m("super(6);"),
                m("super(7);"),
                m("super(8);"),
                m("super(9);"),
                m("super(10);"),
                m("super(11);"),
                m("super(12);"),
            ],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 65,
            paper_trad: 2224,
        },
        Task {
            id: "javac-4",
            benchmark: "javac",
            kind: TaskKind::ToughCast,
            seed: m("IfNode cond = (IfNode) n;"),
            desired: vec![
                m("super(1);"),
                m("super(2);"),
                m("super(3);"),
                m("super(4);"),
                m("super(5);"),
                m("super(6);"),
                m("super(7);"),
                m("super(8);"),
                m("super(9);"),
                m("super(10);"),
                m("super(11);"),
                m("super(12);"),
            ],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 45,
            paper_trad: 855,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn javac_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in casts() {
            let resolved = task.resolve(&b, &mut session);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }

    #[test]
    fn the_casts_are_actually_tough() {
        // A tough cast is one the pointer analysis cannot verify: `n` may
        // point to any Node subclass at the cast site.
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        let line = crate::spec::line_with(SOURCE, "AddNode add = (AddNode) n;");
        let stmts = session.stmts_at_line("javac.mj", line);
        let program = session.program().clone();
        let cast = stmts
            .iter()
            .find_map(|s| match &program.instr(*s).kind {
                thinslice_ir::InstrKind::Cast {
                    src: thinslice_ir::Operand::Var(v),
                    ty,
                    ..
                } => Some((s.method, *v, ty.clone())),
                _ => None,
            })
            .expect("cast statement on the line");
        assert!(
            !session
                .pta()
                .cast_is_verified(&program, cast.0, cast.1, &cast.2),
            "the (AddNode) cast must be unverifiable by the pointer analysis"
        );
    }
}
