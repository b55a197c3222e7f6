//! Reference answers computed from the generated points by plain scans — no
//! index, no engine kernel — and the model of the visible point set that
//! write workloads are checked against.

use std::collections::BTreeMap;

use two_knn::core::plan::Row;
use two_knn::core::store::WriteOp;
use two_knn::geometry::Predicate;
use two_knn::Point;

/// What a sampled select op asked, in the terms the oracle needs.
#[derive(Debug, Clone)]
pub enum SelectAsk {
    /// `KNN(k, x, y)`, with `pre` restricting which points compete.
    Knn {
        k: usize,
        focal: Point,
        pre: Option<Predicate>,
    },
    /// `KNN(k, x, y) AND post`: the unfiltered neighbourhood, then pruned.
    PostFiltered {
        k: usize,
        focal: Point,
        post: Predicate,
    },
    /// `KNN(k1, f1) AND KNN(k2, f2)`: the two neighbourhoods intersected.
    TwoSelects {
        k1: usize,
        f1: Point,
        k2: usize,
        f2: Point,
    },
}

fn dist2(p: &Point, f: &Point) -> f64 {
    let dx = p.x - f.x;
    let dy = p.y - f.y;
    dx * dx + dy * dy
}

/// Squared distance of the `k`-th nearest matching point (of the farthest
/// one when fewer than `k` match), and how many matching points lie within
/// it. `None` when nothing matches.
fn kth_radius2<'a>(
    points: impl Iterator<Item = &'a Point> + Clone,
    focal: &Point,
    k: usize,
    keep: &dyn Fn(&Point) -> bool,
    buf: &mut Vec<f64>,
) -> Option<(f64, usize)> {
    buf.clear();
    buf.extend(points.filter(|p| keep(p)).map(|p| dist2(p, focal)));
    if buf.is_empty() || k == 0 {
        return None;
    }
    let nth = k.min(buf.len()) - 1;
    let (_, radius2, _) = buf.select_nth_unstable_by(nth, |a, b| a.total_cmp(b));
    let radius2 = *radius2;
    let within = buf.iter().filter(|d| **d <= radius2).count();
    Some((radius2, within))
}

/// Checks the rows an op returned against a scan of `points` (the visible
/// point set when the op ran). Ties at a k-th distance make more than one
/// answer valid; then membership and size are checked instead of equality.
pub fn check_select<'a>(
    ask: &SelectAsk,
    rows: &[Row],
    points: impl Iterator<Item = &'a Point> + Clone,
    buf: &mut Vec<f64>,
) -> Result<(), String> {
    let mut got: Vec<Point> = Vec::with_capacity(rows.len());
    for row in rows {
        match row {
            Row::Point(p) => got.push(*p),
            other => return Err(format!("select returned a non-point row {other:?}")),
        }
    }
    got.sort_unstable_by_key(|p| p.id);
    if got.windows(2).any(|w| w[0].id == w[1].id) {
        return Err("a point id appears twice".into());
    }

    // `valid` = every point a correct answer may contain; `exact` = the
    // answer is unique, so it must equal `valid`; `want` = its size.
    let always = |_: &Point| true;
    let (mut valid, exact, want): (Vec<Point>, bool, Option<usize>) = match ask {
        SelectAsk::Knn { k, focal, pre } => {
            let keep = |p: &Point| pre.as_ref().map_or(true, |f| f.matches_point(p));
            match kth_radius2(points.clone(), focal, *k, &keep, buf) {
                None => (Vec::new(), true, Some(0)),
                Some((r2, within)) => {
                    let valid: Vec<Point> = points
                        .filter(|p| keep(p) && dist2(p, focal) <= r2)
                        .copied()
                        .collect();
                    let want = (*k).min(buf.len());
                    (valid, within == want, Some(want))
                }
            }
        }
        SelectAsk::PostFiltered { k, focal, post } => {
            match kth_radius2(points.clone(), focal, *k, &always, buf) {
                None => (Vec::new(), true, Some(0)),
                Some((r2, within)) => {
                    let valid: Vec<Point> = points
                        .filter(|p| dist2(p, focal) <= r2 && post.matches_point(p))
                        .copied()
                        .collect();
                    (valid, within == (*k).min(buf.len()), None)
                }
            }
        }
        SelectAsk::TwoSelects { k1, f1, k2, f2 } => {
            let first = kth_radius2(points.clone(), f1, *k1, &always, buf);
            let n = buf.len();
            let second = kth_radius2(points.clone(), f2, *k2, &always, buf);
            match (first, second) {
                (Some((r1, w1)), Some((r2, w2))) => {
                    let valid: Vec<Point> = points
                        .filter(|p| dist2(p, f1) <= r1 && dist2(p, f2) <= r2)
                        .copied()
                        .collect();
                    (valid, w1 == (*k1).min(n) && w2 == (*k2).min(n), None)
                }
                _ => (Vec::new(), true, Some(0)),
            }
        }
    };
    valid.sort_unstable_by_key(|p| p.id);

    if let Some(want) = want {
        if got.len() != want {
            return Err(format!("{} rows, the answer has {want}", got.len()));
        }
    }
    if exact {
        if got != valid {
            return Err(format!(
                "rows {:?} differ from the scan's {:?}",
                ids(&got),
                ids(&valid)
            ));
        }
    } else if let Some(stray) = got.iter().find(|p| {
        valid
            .binary_search_by_key(&p.id, |v| v.id)
            .map_or(true, |i| valid[i] != **p)
    }) {
        return Err(format!("row {stray:?} is outside every valid answer"));
    }
    Ok(())
}

fn ids(points: &[Point]) -> Vec<u64> {
    points.iter().map(|p| p.id).collect()
}

/// The visible point set as a write workload's schedule defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Model(BTreeMap<u64, (f64, f64)>);

impl Model {
    pub fn from_points(points: &[Point]) -> Self {
        Model(points.iter().map(|p| (p.id, (p.x, p.y))).collect())
    }

    pub fn apply(&mut self, batch: &[WriteOp]) {
        for op in batch {
            match op {
                WriteOp::Upsert(p) => {
                    self.0.insert(p.id, (p.x, p.y));
                }
                WriteOp::Remove(id) => {
                    self.0.remove(id);
                }
            }
        }
    }

    /// Compares against the points an engine snapshot holds.
    pub fn matches(&self, mut visible: Vec<Point>) -> Result<(), String> {
        visible.sort_unstable_by_key(|p| p.id);
        if visible.len() != self.0.len() {
            return Err(format!(
                "{} visible points, the model holds {}",
                visible.len(),
                self.0.len()
            ));
        }
        match visible
            .iter()
            .zip(&self.0)
            .find(|(p, (id, (x, y)))| p.id != **id || p.x != *x || p.y != *y)
        {
            Some((p, (id, at))) => Err(format!("visible {p:?}, the model has id {id} at {at:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        (0..10).map(|i| Point::new(i, i as f64, 0.0)).collect()
    }

    fn rows(ids: &[u64]) -> Vec<Row> {
        ids.iter()
            .map(|i| Row::Point(Point::new(*i, *i as f64, 0.0)))
            .collect()
    }

    #[test]
    fn knn_answers_are_checked_exactly_and_ties_accept_either_side() {
        let points = pts();
        let mut buf = Vec::new();
        let ask = SelectAsk::Knn {
            k: 3,
            focal: Point::anonymous(0.1, 0.0),
            pre: None,
        };
        assert!(check_select(&ask, &rows(&[0, 1, 2]), points.iter(), &mut buf).is_ok());
        assert!(check_select(&ask, &rows(&[0, 1, 3]), points.iter(), &mut buf).is_err());
        assert!(check_select(&ask, &rows(&[0, 1]), points.iter(), &mut buf).is_err());
        // Focal 2.0: ids 1 and 3 tie for second place.
        let tie = SelectAsk::Knn {
            k: 2,
            focal: Point::anonymous(2.0, 0.0),
            pre: None,
        };
        assert!(check_select(&tie, &rows(&[2, 1]), points.iter(), &mut buf).is_ok());
        assert!(check_select(&tie, &rows(&[2, 3]), points.iter(), &mut buf).is_ok());
        assert!(check_select(&tie, &rows(&[2, 4]), points.iter(), &mut buf).is_err());
    }

    #[test]
    fn filter_placement_changes_the_expected_answer() {
        let points = pts();
        let mut buf = Vec::new();
        let even = Predicate::id_in(vec![0, 2, 4, 6, 8]);
        let focal = Point::anonymous(0.1, 0.0);
        let pre = SelectAsk::Knn {
            k: 3,
            focal,
            pre: Some(even.clone()),
        };
        assert!(check_select(&pre, &rows(&[0, 2, 4]), points.iter(), &mut buf).is_ok());
        let post = SelectAsk::PostFiltered {
            k: 3,
            focal,
            post: even,
        };
        assert!(check_select(&post, &rows(&[0, 2]), points.iter(), &mut buf).is_ok());
        assert!(check_select(&post, &rows(&[0, 2, 4]), points.iter(), &mut buf).is_err());
        let two = SelectAsk::TwoSelects {
            k1: 4,
            f1: focal,
            k2: 3,
            f2: Point::anonymous(3.9, 0.0),
        };
        assert!(check_select(&two, &rows(&[3]), points.iter(), &mut buf).is_ok());
        assert!(check_select(&two, &rows(&[]), points.iter(), &mut buf).is_err());
    }

    #[test]
    fn model_tracks_upserts_and_removes() {
        let mut model = Model::from_points(&pts());
        model.apply(&[
            WriteOp::Upsert(Point::new(3, 30.0, 1.0)),
            WriteOp::Remove(4),
            WriteOp::Upsert(Point::new(77, 7.0, 7.0)),
        ]);
        assert_eq!(model.0.len(), 10);
        let mut visible = pts();
        visible.retain(|p| p.id != 4);
        visible[3] = Point::new(3, 30.0, 1.0);
        visible.push(Point::new(77, 7.0, 7.0));
        assert!(model.matches(visible.clone()).is_ok());
        visible[0].x += 1.0;
        assert!(model.matches(visible).is_err());
    }
}
