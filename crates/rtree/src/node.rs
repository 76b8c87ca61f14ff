//! On-page node layout.
//!
//! Leaf and inner entries are both 56 bytes, so leaves and inner nodes have
//! the same page-derived fanout:
//!
//! * leaf record: element id (`u64`) + MBB (6 × `f64`);
//! * inner entry: child page id (`u64`) + MBB (6 × `f64`).

use bytes::{Buf, BufMut};
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_storage::PageId;

const LEAF_TAG: u8 = 1;
const INNER_TAG: u8 = 0;
const HEADER: usize = 1 + 2;
const ENTRY: usize = 56;

/// An inner-node entry: a child page and its bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEntry {
    /// Bounding box of the child subtree.
    pub mbb: Aabb,
    /// Page id of the child node.
    pub child: PageId,
}

/// A decoded R-Tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum RtreeNode {
    /// Leaf node: the indexed elements.
    Leaf(Vec<SpatialElement>),
    /// Inner node: child entries.
    Inner(Vec<NodeEntry>),
}

/// Maximum entries per node for a page size: what fits, and never more
/// than the `u16` count in the header can say.
pub fn capacity(page_size: usize) -> usize {
    assert!(
        page_size >= HEADER + ENTRY,
        "page size {page_size} too small for an R-Tree node"
    );
    ((page_size - HEADER) / ENTRY).min(u16::MAX as usize)
}

/// Encodes a leaf page.
pub fn encode_leaf(page_size: usize, elements: &[SpatialElement]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(page_size);
    encode_leaf_into(page_size, elements, &mut buf);
    buf
}

/// Encodes a leaf page into `buf` (cleared first; the build pipeline's
/// sequential path reuses one buffer across the whole level).
pub fn encode_leaf_into(page_size: usize, elements: &[SpatialElement], buf: &mut Vec<u8>) {
    assert!(elements.len() <= capacity(page_size));
    buf.clear();
    buf.reserve(page_size);
    buf.put_u8(LEAF_TAG);
    buf.put_u16_le(u16::try_from(elements.len()).expect("capacity fits the count field"));
    for e in elements {
        buf.put_u64_le(e.id);
        put_aabb(buf, &e.mbb);
    }
}

/// Encodes an inner page.
#[cfg_attr(not(test), allow(dead_code))]
pub fn encode_inner(page_size: usize, entries: &[NodeEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(page_size);
    encode_inner_into(page_size, entries, &mut buf);
    buf
}

/// Encodes an inner page into `buf` (cleared first; see
/// [`encode_leaf_into`]).
pub fn encode_inner_into(page_size: usize, entries: &[NodeEntry], buf: &mut Vec<u8>) {
    assert!(entries.len() <= capacity(page_size));
    buf.clear();
    buf.reserve(page_size);
    buf.put_u8(INNER_TAG);
    buf.put_u16_le(u16::try_from(entries.len()).expect("capacity fits the count field"));
    for e in entries {
        buf.put_u64_le(e.child.0);
        put_aabb(buf, &e.mbb);
    }
}

impl RtreeNode {
    /// Decodes a node page.
    pub fn decode(page: &[u8]) -> Self {
        let mut buf = page;
        let tag = buf.get_u8();
        let count = buf.get_u16_le() as usize;
        if tag == LEAF_TAG {
            let mut elems = Vec::with_capacity(count);
            for _ in 0..count {
                let id = buf.get_u64_le();
                let mbb = get_aabb(&mut buf);
                elems.push(SpatialElement::new(id, mbb));
            }
            RtreeNode::Leaf(elems)
        } else {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let child = PageId(buf.get_u64_le());
                let mbb = get_aabb(&mut buf);
                entries.push(NodeEntry { mbb, child });
            }
            RtreeNode::Inner(entries)
        }
    }
}

fn put_aabb(buf: &mut Vec<u8>, mbb: &Aabb) {
    buf.put_f64_le(mbb.min.x);
    buf.put_f64_le(mbb.min.y);
    buf.put_f64_le(mbb.min.z);
    buf.put_f64_le(mbb.max.x);
    buf.put_f64_le(mbb.max.y);
    buf.put_f64_le(mbb.max.z);
}

fn get_aabb(buf: &mut &[u8]) -> Aabb {
    let min = Point3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let max = Point3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    Aabb::new(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_for_default_page() {
        assert_eq!(capacity(8192), (8192 - 3) / 56); // 146
    }

    #[test]
    fn capacity_never_exceeds_the_count_field() {
        // 4 MiB has room for 74 898 entries; the header counts to 65 535.
        assert_eq!(capacity(1 << 22), u16::MAX as usize);
        assert_eq!(capacity(HEADER + 65_535 * ENTRY - 1), 65_534);
    }

    #[test]
    fn leaf_roundtrip() {
        let elems = vec![
            SpatialElement::new(
                3,
                Aabb::new(Point3::new(0.0, 1.0, 2.0), Point3::new(3.0, 4.0, 5.0)),
            ),
            SpatialElement::new(
                9,
                Aabb::new(Point3::new(-1.0, -2.0, -3.0), Point3::new(0.0, 0.0, 0.0)),
            ),
        ];
        let page = encode_leaf(1024, &elems);
        assert_eq!(RtreeNode::decode(&page), RtreeNode::Leaf(elems));
    }

    #[test]
    fn inner_roundtrip() {
        let entries = vec![
            NodeEntry {
                mbb: Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
                child: PageId(42),
            },
            NodeEntry {
                mbb: Aabb::new(Point3::new(5.0, 5.0, 5.0), Point3::new(9.0, 9.0, 9.0)),
                child: PageId(77),
            },
        ];
        let page = encode_inner(1024, &entries);
        assert_eq!(RtreeNode::decode(&page), RtreeNode::Inner(entries));
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let page = encode_leaf(128, &[]);
        assert_eq!(RtreeNode::decode(&page), RtreeNode::Leaf(vec![]));
    }

    #[test]
    #[should_panic]
    fn too_small_page_panics() {
        capacity(32);
    }
}
