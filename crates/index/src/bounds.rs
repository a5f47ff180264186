//! Axis-aligned bounding rectangles used by the spatial index.

/// A 2-D axis-aligned rectangle with inclusive bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum x (e.g. longitude).
    pub min_x: f64,
    /// Minimum y (e.g. latitude).
    pub min_y: f64,
    /// Maximum x.
    pub max_x: f64,
    /// Maximum y.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle, normalizing the corner order.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Rect {
        Rect {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// A degenerate rectangle covering a single point.
    pub fn point(x: f64, y: f64) -> Rect {
        Rect {
            min_x: x,
            min_y: y,
            max_x: x,
            max_y: y,
        }
    }

    /// An "empty" rectangle that unions as the identity element.
    pub fn empty() -> Rect {
        Rect {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Whether this rectangle intersects another (inclusive bounds).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Whether this rectangle fully contains another.
    pub fn contains(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// Smallest rectangle containing both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Center of the rectangle.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes_corners() {
        let r = Rect::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(r.min_x, 1.0);
        assert_eq!(r.max_y, 7.0);
    }

    #[test]
    fn intersection_and_containment() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        let c = Rect::new(20.0, 20.0, 30.0, 30.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.contains(&b));
        assert!(a.contains(&Rect::point(10.0, 10.0)));
        assert!(!a.contains(&Rect::point(10.1, 5.0)));
    }

    #[test]
    fn touching_edges_count_as_intersecting() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn union_spans_both_rects() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.union(&Rect::new(0.2, 0.2, 0.8, 0.8)), a);
    }

    #[test]
    fn empty_rect_is_union_identity() {
        let e = Rect::empty();
        let a = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn point_rect_and_center() {
        let p = Rect::point(3.0, 4.0);
        assert!(p.contains(&Rect::point(3.0, 4.0)));
        assert_eq!(Rect::new(0.0, 0.0, 2.0, 4.0).center(), (1.0, 2.0));
    }

    #[test]
    fn rects_relate_to_themselves() {
        for r in [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::point(2.5, -3.5),
            Rect::new(-1e18, -1e18, 1e18, 1e18),
        ] {
            assert!(r.intersects(&r));
            assert!(r.contains(&r), "containment bounds are inclusive");
            assert_eq!(r.union(&r), r);
        }
    }

    #[test]
    fn empty_rect_never_intersects_or_contains() {
        let e = Rect::empty();
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
        assert!(!e.contains(&a));
        assert!(!e.contains(&Rect::point(0.0, 0.0)));
    }

    #[test]
    fn corner_touching_rects_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&b), "shared corner is inclusive overlap");
        assert!(a.contains(&Rect::point(1.0, 1.0)));
        assert!(b.contains(&Rect::point(1.0, 1.0)));
    }

    #[test]
    fn degenerate_rects_intersect_along_shared_segments() {
        // Zero-width rectangles (vertical segments) and points.
        let seg = Rect::new(1.0, 0.0, 1.0, 5.0);
        assert!(seg.intersects(&Rect::point(1.0, 2.5)));
        assert!(!seg.intersects(&Rect::point(1.0001, 2.5)));
        assert!(!Rect::new(0.0, 0.0, 2.0, 2.0).contains(&seg), "segment extends past y=2");
        assert!(Rect::new(0.0, 0.0, 2.0, 5.0).contains(&seg));
    }

    #[test]
    fn union_with_point_extends_exactly_to_it() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let u = a.union(&Rect::point(5.0, -2.0));
        assert_eq!(u, Rect::new(0.0, -2.0, 5.0, 1.0));
    }
}
