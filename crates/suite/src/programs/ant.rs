//! The `ant` benchmark: a miniature build system in MJ.
//!
//! Mirrors Ant's dependence shape: targets registered in a `Hashtable`,
//! task lists in `Vector`s, recursive target execution, and a property
//! resolver with many `return` statements — the paper attributes ant-3's
//! high `#Control` to "the buggy function has 12 return statements, and one
//! of them is directly control dependent on the bug" (§6.2).

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class BuildTask {
    String name;
    String value;
    BuildTask(String name, String value) {
        this.name = name;
        this.value = value;
    }
}

class Target {
    String name;
    Vector tasks;
    Vector deps;
    Target(String name) {
        this.name = name;
        this.tasks = new Vector();
        this.deps = new Vector();
    }
    void addTask(BuildTask t) {
        this.tasks.add(t);
    }
    void addDep(String dep) {
        this.deps.add(dep);
    }
}

class Project {
    Hashtable targets;
    Hashtable props;
    Project() {
        this.targets = new Hashtable();
        this.props = new Hashtable();
    }
    void addTarget(Target t) {
        this.targets.put(t.name, t);
    }
    Target getTarget(String name) {
        return (Target) this.targets.get(name);
    }
    void setProperty(String key, String value) {
        this.props.put(key, value);
    }
    String getProperty(String key) {
        return (String) this.props.get(key);
    }
    String resolveProperty(String name) {
        if (name.equalsStr("os.name")) {
            return "linux";
        }
        if (name.equalsStr("os.arch")) {
            return "x86";
        }
        if (name.equalsStr("java.version")) {
            return "1.4";
        }
        if (name.equalsStr("build.dir")) {
            String base = this.getProperty("basedir");
            return base + "/build";
        }
        if (name.equalsStr("dist.dir")) {
            String base2 = this.getProperty("basedir");
            return base2 + "/dist";
        }
        if (name.equalsStr("src.dir")) {
            String base3 = this.getProperty("basedir");
            return base3 + "/source";
        }
        if (name.equalsStr("lib.dir")) {
            return "lib";
        }
        if (name.equalsStr("doc.dir")) {
            return "doc";
        }
        if (name.equalsStr("test.dir")) {
            return "test";
        }
        if (name.equalsStr("user.name")) {
            return "builder";
        }
        if (name.equalsStr("project.name")) {
            return this.getProperty("name");
        }
        return this.getProperty(name);
    }
}

class BuildParser {
    InputStream input;
    BuildParser(InputStream input) {
        this.input = input;
    }
    Project parse() {
        Project project = new Project();
        while (!this.input.eof()) {
            String line = this.input.readLine();
            Target target = this.parseTarget(project, line);
            project.addTarget(target);
        }
        return project;
    }
    Target parseTarget(Project project, String line) {
        int cut = line.indexOf(":");
        String targetName = line.substring(0, cut);
        Target target = new Target(targetName);
        String taskValue = line.substring(cut + 1, line.length() - 1);
        BuildTask task = new BuildTask("echo", taskValue);
        target.addTask(task);
        int depCut = line.indexOf(">");
        if (depCut > 0) {
            String depName = line.substring(depCut, line.length());
            target.addDep(depName);
        }
        return target;
    }
}

class Executor {
    Project project;
    int depth;
    Executor(Project project) {
        this.project = project;
        this.depth = 0;
    }
    void execute(String targetName) {
        Target target = this.project.getTarget(targetName);
        if (target == null) {
            throw new RuntimeException("missing dependency: " + targetName);
        }
        this.depth = this.depth + 1;
        if (this.depth > 20) {
            throw new RuntimeException("dependency cycle");
        }
        int i = 0;
        while (i < target.deps.size()) {
            String dep = (String) target.deps.get(i);
            this.execute(dep);
            i = i + 1;
        }
        int j = 0;
        while (j < target.tasks.size()) {
            BuildTask task = (BuildTask) target.tasks.get(j);
            if (task.value == null) {
                throw new RuntimeException("task without value in " + target.name);
            }
            print("run: " + task.value);
            j = j + 1;
        }
        this.depth = this.depth - 1;
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("build.xml");
        BuildParser parser = new BuildParser(in);
        Project project = parser.parse();
        project.setProperty("basedir", "/work");
        Executor executor = new Executor(project);
        executor.execute("compile");
        String buildDir = project.resolveProperty("build.dir");
        print("build.dir = " + buildDir);
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "ant",
        sources: vec![("ant.mj", SOURCE)],
    }
}

/// The four injected-bug tasks (Table 2 rows ant-1 … ant-4).
pub fn bugs() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "ant.mj",
        snippet,
    };
    vec![
        // A task whose value is null; the bug is the task construction one
        // call away, guarded by the null check.
        Task {
            id: "ant-1",
            benchmark: "ant",
            kind: TaskKind::Bug,
            seed: m("throw new RuntimeException(\"task without value in \" + target.name);"),
            desired: vec![m("BuildTask task = new BuildTask(\"echo\", taskValue);")],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 2,
            paper_trad: 2,
        },
        // The echoed value is wrong; the bug is the substring producing it.
        Task {
            id: "ant-2",
            benchmark: "ant",
            kind: TaskKind::Bug,
            seed: m("print(\"run: \" + task.value);"),
            desired: vec![m(
                "String taskValue = line.substring(cut + 1, line.length() - 1);",
            )],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 4,
            paper_trad: 5,
        },
        // A wrong resolved property; the resolver has a dozen returns, each
        // a candidate (the paper counts one control dependence per return).
        Task {
            id: "ant-3",
            benchmark: "ant",
            kind: TaskKind::Bug,
            seed: m("print(\"build.dir = \" + buildDir);"),
            desired: vec![m("return base + \"/build\";")],
            control_deps: 15,
            needs_alias_expansion: false,
            paper_thin: 34,
            paper_trad: 55,
        },
        // A "missing dependency" failure; the bug is the dependency-name
        // substring, behind two relevant conditionals.
        Task {
            id: "ant-4",
            benchmark: "ant",
            kind: TaskKind::Bug,
            seed: m("throw new RuntimeException(\"missing dependency: \" + targetName);"),
            desired: vec![m("String depName = line.substring(depCut, line.length());")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 3,
            paper_trad: 3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn ant_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in bugs() {
            let resolved = task.resolve(&b, &mut session);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }
}
