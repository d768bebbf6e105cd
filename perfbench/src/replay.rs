//! Kernel replay: the GEMM and im2col calls one evaluation batch makes,
//! re-issued at the workload network's own lowering shapes.
//!
//! The shapes come from walking `Network::describe()` with the input
//! image shape (convolution geometry, pooling, flattening), and follow
//! the conv layer's lowering: one im2col per chunk of items that fits the
//! installed im2col cap, then `matmul_bt_into(W, cols)`; linear layers
//! run `matmul_bt_into(x, W)`. Kernel spans inside the program are a
//! later change; until then this is how the tensor layer is measured.

use std::time::Instant;

use swim_tensor::conv::{im2col_batch_into, ConvGeometry};
use swim_tensor::linalg::matmul_bt_into;

use crate::report::median;

/// One kernel call of the evaluation forward pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// `matmul_bt_into` with `a: [m, k]`, `b: [n, k]`.
    Gemm {
        /// Rows of `a`.
        m: usize,
        /// Shared dimension.
        k: usize,
        /// Rows of `b`.
        n: usize,
    },
    /// `im2col_batch_into` of `items` images.
    Im2col {
        /// Convolution geometry.
        geom: ConvGeometry,
        /// Images in the chunk.
        items: usize,
    },
}

/// A parsed `describe()` node: `Name(args)[children]`.
#[derive(Debug)]
struct Node {
    name: String,
    args: String,
    children: Vec<Node>,
}

fn parse_node(text: &[u8], pos: &mut usize) -> Result<Node, String> {
    let start = *pos;
    while *pos < text.len() && (text[*pos].is_ascii_alphanumeric() || text[*pos] == b'_') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected a layer name at byte {start}"));
    }
    let name = String::from_utf8_lossy(&text[start..*pos]).into_owned();
    let mut args = String::new();
    if text.get(*pos) == Some(&b'(') {
        let close = text[*pos..].iter().position(|&c| c == b')').ok_or("unclosed `(`")?;
        args = String::from_utf8_lossy(&text[*pos + 1..*pos + close]).into_owned();
        *pos += close + 1;
    }
    let mut children = Vec::new();
    if text.get(*pos) == Some(&b'[') {
        *pos += 1;
        loop {
            children.push(parse_node(text, pos)?);
            let rest = &text[*pos..];
            if rest.starts_with(b", ") {
                *pos += 2;
            } else if rest.starts_with(b" || ") {
                *pos += 4;
            } else if rest.starts_with(b"]") {
                *pos += 1;
                break;
            } else {
                return Err(format!("unexpected text at byte {}", *pos));
            }
        }
    }
    Ok(Node { name, args, children })
}

/// Numbers in a `describe()` argument list, in order (`1->6, k5, s1, p2`
/// gives `[1, 6, 5, 1, 2]`).
fn numbers(args: &str) -> Vec<usize> {
    args.split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("digits parse"))
        .collect()
}

/// Activation shape `[channels, height, width]` after one node, pushing
/// the node's kernel calls for a batch of `batch` items.
fn walk(
    node: &Node,
    shape: [usize; 3],
    batch: usize,
    im2col_cap: usize,
    out: &mut Vec<Kernel>,
) -> Result<[usize; 3], String> {
    let [c, h, w] = shape;
    let args = numbers(&node.args);
    Ok(match (node.name.as_str(), args.as_slice()) {
        ("Sequential", _) => {
            let mut shape = shape;
            for child in &node.children {
                shape = walk(child, shape, batch, im2col_cap, out)?;
            }
            shape
        }
        ("Residual", _) => {
            let main = node.children.first().ok_or("residual without a main path")?;
            let after = walk(main, shape, batch, im2col_cap, out)?;
            if let Some(shortcut) = node.children.get(1) {
                let side = walk(shortcut, shape, batch, im2col_cap, out)?;
                if side != after {
                    return Err(format!("residual paths disagree: {after:?} vs {side:?}"));
                }
            }
            after
        }
        ("Conv2d", &[cin, cout, kernel, stride, padding]) => {
            if cin != c {
                return Err(format!("Conv2d expects {cin} channels, input has {c}"));
            }
            let geom = ConvGeometry {
                in_channels: cin,
                in_h: h,
                in_w: w,
                kernel_h: kernel,
                kernel_w: kernel,
                stride,
                padding,
            };
            if !geom.is_valid() {
                return Err(format!("invalid geometry {geom:?}"));
            }
            let spatial = geom.col_rows();
            // The conv layer's chunking rule (Conv2d::chunk_items).
            let per_item = spatial * geom.col_cols().max(cout);
            let chunk = (im2col_cap / per_item.max(1)).clamp(1, batch.max(1));
            let mut done = 0;
            while done < batch {
                let items = chunk.min(batch - done);
                out.push(Kernel::Im2col { geom, items });
                out.push(Kernel::Gemm { m: cout, k: geom.col_cols(), n: items * spatial });
                done += items;
            }
            [cout, geom.out_h(), geom.out_w()]
        }
        ("MaxPool2d" | "AvgPool2d", &[window, _]) => [c, h / window, w / window],
        ("GlobalAvgPool", _) => [c, 1, 1],
        ("Flatten", _) => [c * h * w, 1, 1],
        ("Linear", &[fan_in, fan_out]) => {
            if fan_in != c * h * w {
                return Err(format!(
                    "Linear expects {fan_in} inputs, activation has {}",
                    c * h * w
                ));
            }
            out.push(Kernel::Gemm { m: batch, k: fan_in, n: fan_out });
            [fan_out, 1, 1]
        }
        ("Conv2d" | "Linear" | "MaxPool2d" | "AvgPool2d", _) => {
            return Err(format!("cannot read the shape of `{}({})`", node.name, node.args))
        }
        _ => shape,
    })
}

/// The kernel calls of one evaluation batch of `batch` images shaped
/// `input`, for the network `describe()` renders as `description`.
pub fn eval_kernels(
    description: &str,
    input: [usize; 3],
    batch: usize,
    im2col_cap: usize,
) -> Result<Vec<Kernel>, String> {
    let body = description.split_once(": ").map_or(description, |(_, body)| body);
    let mut pos = 0;
    let root = parse_node(body.as_bytes(), &mut pos)?;
    if pos != body.len() {
        return Err(format!("trailing text after the layer tree at byte {pos}"));
    }
    let mut out = Vec::new();
    walk(&root, input, batch, im2col_cap, &mut out)?;
    Ok(out)
}

/// Median timings of replaying one evaluation batch's kernels.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTimes {
    /// GEMM seconds per batch.
    pub gemm_s: f64,
    /// im2col seconds per batch.
    pub im2col_s: f64,
    /// Multiply-adds ×2 per batch.
    pub flops: f64,
}

fn filled(len: usize, seed: &mut u32) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (*seed >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

/// Replays `kernels` `reps` times and returns per-batch medians.
pub fn replay(kernels: &[Kernel], reps: usize) -> ReplayTimes {
    let mut seed = 0x5EED;
    let operands: Vec<(Vec<f32>, Vec<f32>)> = kernels
        .iter()
        .map(|k| match k {
            Kernel::Gemm { m, k, n } => (filled(m * k, &mut seed), filled(n * k, &mut seed)),
            Kernel::Im2col { geom, items } => {
                (filled(items * geom.in_channels * geom.in_h * geom.in_w, &mut seed), Vec::new())
            }
        })
        .collect();
    let flops: f64 = kernels
        .iter()
        .map(|k| match k {
            Kernel::Gemm { m, k, n } => 2.0 * (m * k * n) as f64,
            Kernel::Im2col { .. } => 0.0,
        })
        .sum();
    let mut scratch = Vec::new();
    let (mut gemm, mut im2col) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let (mut g, mut i) = (0.0, 0.0);
        for (kernel, (a, b)) in kernels.iter().zip(&operands) {
            let t = Instant::now();
            match kernel {
                Kernel::Gemm { m, k, n } => {
                    scratch.resize(m * n, 0.0);
                    matmul_bt_into(a, b, *m, *k, *n, &mut scratch);
                    std::hint::black_box(&scratch);
                    g += t.elapsed().as_secs_f64();
                }
                Kernel::Im2col { geom, items } => {
                    im2col_batch_into(a, *items, geom, &mut scratch);
                    std::hint::black_box(&scratch);
                    i += t.elapsed().as_secs_f64();
                }
            }
        }
        gemm.push(g);
        im2col.push(i);
    }
    ReplayTimes { gemm_s: median(&gemm), im2col_s: median(&im2col), flops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_nn::models::{LeNetConfig, ResNet18Config};

    #[test]
    fn lenet_lowering_shapes() {
        let net = LeNetConfig::paper().build(1);
        let kernels = eval_kernels(&net.describe(), [1, 28, 28], 80, usize::MAX).unwrap();
        let gemms: Vec<_> = kernels
            .iter()
            .filter_map(|k| match k {
                Kernel::Gemm { m, k, n } => Some((*m, *k, *n)),
                _ => None,
            })
            .collect();
        // conv1 1→6 k5 p2 at 28×28, conv2 6→16 k5 at 14×14, then the
        // three linear layers 400→200→84→10.
        assert_eq!(
            gemms,
            vec![
                (6, 25, 80 * 784),
                (16, 150, 80 * 100),
                (80, 400, 200),
                (80, 200, 84),
                (80, 84, 10)
            ]
        );
    }

    #[test]
    fn resnet_walk_reaches_the_classifier() {
        let net = ResNet18Config::reduced(0.25).build(1);
        let kernels = eval_kernels(&net.describe(), [3, 32, 32], 20, 1 << 22).unwrap();
        let convs = kernels.iter().filter(|k| matches!(k, Kernel::Im2col { .. })).count();
        // 17 3×3 convs + 3 projection shortcuts, some split into chunks.
        assert!(convs >= 20, "{convs}");
        assert!(matches!(kernels.last(), Some(Kernel::Gemm { m: 20, n: 10, .. })));
        let times = replay(&kernels[..4], 2);
        assert!(times.gemm_s > 0.0 && times.im2col_s > 0.0 && times.flops > 0.0);
    }

    #[test]
    fn malformed_descriptions_are_errors() {
        assert!(eval_kernels("net: Sequential[Conv2d(3->4, k3)]", [3, 8, 8], 1, 64).is_err());
        assert!(eval_kernels("net: Sequential[Linear(5->2)]", [1, 2, 2], 1, 64).is_err());
        assert!(eval_kernels("net: Sequential[ReLU", [1, 2, 2], 1, 64).is_err());
    }
}
