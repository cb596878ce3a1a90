//! A small union-find (disjoint set) with path halving and union by size,
//! used for equality reasoning in the theory solver and for domain
//! unification elsewhere in the workspace.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds a fresh singleton and returns its index.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i);
        self.size.push(1);
        i
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns the surviving root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        ra
    }

    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Maps every element to a dense class index `0..k` (stable by first
    /// occurrence) and returns `(class_of, k)`.
    pub fn classes(&mut self) -> (Vec<usize>, usize) {
        let n = self.len();
        let mut class_of = vec![usize::MAX; n];
        let mut next = 0;
        for i in 0..n {
            let r = self.find(i);
            if class_of[r] == usize::MAX {
                class_of[r] = next;
                next += 1;
            }
            class_of[i] = class_of[r];
        }
        (class_of, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        uf.union(1, 3);
        assert!(uf.same(0, 4));
    }

    #[test]
    fn push_extends() {
        let mut uf = UnionFind::new(1);
        let i = uf.push();
        assert_eq!(i, 1);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        assert!(uf.same(0, 1));
    }

    #[test]
    fn dense_classes() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 2);
        let (classes, k) = uf.classes();
        assert_eq!(k, 3);
        assert_eq!(classes[0], classes[2]);
        assert_ne!(classes[0], classes[1]);
        assert_ne!(classes[1], classes[3]);
    }
}
