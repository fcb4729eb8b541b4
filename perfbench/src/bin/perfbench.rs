//! The gated, untraced end-to-end run. See the package README.

fn main() {
    perfbench::main_with(|args| {
        if args.trace {
            return Err("the traced run is the `perfbench-traced` binary".into());
        }
        perfbench::gated(args)
    });
}
