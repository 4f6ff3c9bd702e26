//! The `mtrt` benchmark: a toy ray tracer in MJ.
//!
//! Scene shapes are held behind an abstract `Shape` with a `kind` tag;
//! the intersection code switches on the tag and downcasts. Two tough
//! casts, no relevant control flow beyond the dispatching conditionals.

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class Vec3 {
    int x;
    int y;
    int z;
    Vec3(int x, int y, int z) {
        this.x = x;
        this.y = y;
        this.z = z;
    }
    int dot(Vec3 other) {
        return this.x * other.x + this.y * other.y + this.z * other.z;
    }
}

class Shape {
    int kind;
    Vec3 center;
    Shape(int kind, Vec3 center) {
        this.kind = kind;
        this.center = center;
    }
}

class SphereShape extends Shape {
    int radius;
    SphereShape(Vec3 center, int radius) {
        super(1, center);
        this.radius = radius;
    }
}

class TriangleShape extends Shape {
    Vec3 corner2;
    Vec3 corner3;
    TriangleShape(Vec3 corner1, Vec3 corner2, Vec3 corner3) {
        super(2, corner1);
        this.corner2 = corner2;
        this.corner3 = corner3;
    }
}

class Ray {
    Vec3 origin;
    Vec3 direction;
    Ray(Vec3 origin, Vec3 direction) {
        this.origin = origin;
        this.direction = direction;
    }
}

class Scene {
    Vector shapes;
    Scene() {
        this.shapes = new Vector();
    }
    void addShape(Shape s) {
        this.shapes.add(s);
    }
    int shapeCount() {
        return this.shapes.size();
    }
    Shape shapeAt(int i) {
        return (Shape) this.shapes.get(i);
    }
}

class SceneLoader {
    InputStream input;
    SceneLoader(InputStream input) {
        this.input = input;
    }
    Scene load() {
        Scene scene = new Scene();
        while (!this.input.eof()) {
            int tag = this.input.readInt();
            Vec3 c = new Vec3(this.input.readInt(), this.input.readInt(), this.input.readInt());
            if (tag == 1) {
                scene.addShape(new SphereShape(c, this.input.readInt()));
            } else {
                Vec3 c2 = new Vec3(this.input.readInt(), 0, 0);
                Vec3 c3 = new Vec3(0, this.input.readInt(), 0);
                scene.addShape(new TriangleShape(c, c2, c3));
            }
        }
        return scene;
    }
}

class Intersector {
    int hits;
    Vector hitLog;
    Intersector() {
        this.hits = 0;
        this.hitLog = new Vector();
    }
    int intersect(Ray ray, Shape shape) {
        int kind = shape.kind;
        if (kind == 1) {
            SphereShape sphere = (SphereShape) shape;
            int along = ray.direction.dot(sphere.center);
            int reach = along - sphere.radius;
            if (reach < 0) {
                this.hits = this.hits + 1;
                this.hitLog.add(sphere);
                return 1;
            }
            return 0;
        }
        TriangleShape triangle = (TriangleShape) shape;
        int edge = ray.direction.dot(triangle.corner2);
        int other = ray.direction.dot(triangle.corner3);
        if (edge > 0 && other > 0) {
            this.hits = this.hits + 1;
            return 1;
        }
        return 0;
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("scene.dat");
        SceneLoader loader = new SceneLoader(in);
        Scene scene = loader.load();
        Ray ray = new Ray(new Vec3(0, 0, 0), new Vec3(1, 1, 1));
        Intersector inter = new Intersector();
        int i = 0;
        int total = 0;
        while (i < scene.shapeCount()) {
            Shape shape = scene.shapeAt(i);
            total = total + inter.intersect(ray, shape);
            i = i + 1;
        }
        print("hits: " + "" + total);
        print("logged: " + "" + inter.hitLog.size());
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "mtrt",
        sources: vec![("mtrt.mj", SOURCE)],
    }
}

/// The two tough-cast tasks (Table 3 rows mtrt-1, mtrt-2).
pub fn casts() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "mtrt.mj",
        snippet,
    };
    vec![
        Task {
            id: "mtrt-1",
            benchmark: "mtrt",
            kind: TaskKind::ToughCast,
            seed: m("SphereShape sphere = (SphereShape) shape;"),
            desired: vec![
                m("scene.addShape(new SphereShape(c, this.input.readInt()));"),
                m("scene.addShape(new TriangleShape(c, c2, c3));"),
            ],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 22,
            paper_trad: 51,
        },
        Task {
            id: "mtrt-2",
            benchmark: "mtrt",
            kind: TaskKind::ToughCast,
            seed: m("TriangleShape triangle = (TriangleShape) shape;"),
            desired: vec![
                m("scene.addShape(new SphereShape(c, this.input.readInt()));"),
                m("scene.addShape(new TriangleShape(c, c2, c3));"),
            ],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 23,
            paper_trad: 52,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn mtrt_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in casts() {
            let resolved = task.resolve(&b, &mut session);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }
}
