// Incremental GoodAFS (paper Table 1): the abstract state is a tree.
//
// SpecFs::WellFormed re-proves the invariant with a walk of the whole tree.
// The CRL-H monitor instead discharges it one Aop at a time, the way a
// rely-guarantee proof does: given a well-formed pre-state, an Aop's diff
// (the pre-images of the inodes it changed, crlh/effects.h) plus a parent
// index (inode -> the directory linking it) decide whether the post-state
// is well-formed, at O(touched links x path depth) instead of O(tree).
//
// For a well-formed pre-state that the index mirrors, the post-state is
// well-formed iff
//   * the root exists and is a directory, and touched files carry no links;
//   * every added link has a valid name;
//   * every inode whose in-degree the diff changes — the ends of added and
//     removed links, plus every created or freed inode — ends with in-degree
//     1, or 0 if it is the root or was freed (which also rules out dangling
//     links, links to the root and orphans);
//   * no added link closes a cycle: walking the updated index up from the
//     link's directory reaches the root before the linked inode.
// Untouched inodes keep their (valid) links and their in-degree of 1, so
// these conditions are exactly SpecFs::WellFormed's. tests/good_afs_test.cc
// checks the two verdicts against each other in both directions.

#ifndef ATOMFS_SRC_CRLH_GOOD_AFS_H_
#define ATOMFS_SRC_CRLH_GOOD_AFS_H_

#include <unordered_map>
#include <vector>

#include "src/afs/spec_fs.h"
#include "src/crlh/effects.h"

namespace atomfs {

class GoodAfsIndex {
 public:
  // Indexes every link of `spec` (O(tree)); `spec` should be well-formed.
  void Rebuild(const SpecFs& spec);

  // `post` is the pre-state this index mirrors, changed only at the inodes
  // listed in `diff`. Assuming that pre-state was well-formed, returns
  // whether `post` is, and advances the index to `post`. After a false
  // return the index is stale until the next Rebuild.
  bool Advance(const SpecFs& post, const std::vector<InodeEffect>& diff);

  // The directory linking `ino`; kInvalidInum for the root or an inode the
  // index does not know.
  Inum Parent(Inum ino) const;

  // Follows RemapInum(spec, from, to, ...): re-keys `from`'s entry and points
  // the entries of its children (read from `spec`, already remapped) at `to`.
  void Remap(const SpecFs& spec, Inum from, Inum to);

  friend bool operator==(const GoodAfsIndex& a, const GoodAfsIndex& b) {
    return a.parent_ == b.parent_;
  }

 private:
  std::unordered_map<Inum, Inum> parent_;  // every non-root inode
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CRLH_GOOD_AFS_H_
