// Effects and the roll-back mechanism (paper §4.4, §5.3).
//
// When a helper executes a thread's abstract operation ahead of its concrete
// execution, the abstract state runs ahead of the concrete state. To state
// the abstract-concrete relation, CRL-H records the *effect* of each helped
// Aop and establishes consistency by rolling those effects back on the
// abstract state ("first roll back the effects applied last").
//
// The paper records effects as micro-operations (OPins, OPcreate, ...) at
// inode granularity. We record the pre-image of every inode the Aop changed;
// its post-image is the live abstract state right after the Aop. SpecFs logs
// each pre-image the first time a mutator touches the inode (SpecFs::
// StartPreImageLog), so the effect set is exact — the same information at the
// same granularity, obtained mechanically from the specification itself so
// the effect log can never drift from the spec's semantics — and costs
// O(touched inodes), not O(tree) or O(path).

#ifndef ATOMFS_SRC_CRLH_EFFECTS_H_
#define ATOMFS_SRC_CRLH_EFFECTS_H_

#include <vector>

#include "src/afs/op.h"
#include "src/afs/spec_fs.h"

namespace atomfs {

// One modified abstract inode and its content before the Aop: absent
// `before` means the Aop created it; an inode missing after the Aop was
// freed by it.
using InodeEffect = PreImage;

// Runs `call` on `spec` (mutating it) and, if `effects` is non-null, records
// the effects: one entry per inode whose content or existence the Aop
// changed. If `forced_ino` is valid and the operation creates an inode, the
// new inode is given that number directly (so the ghost abstract state can
// mirror concrete inode numbers, or use a ghost placeholder for helped
// creations); a forced number already in use fails ATOMFS_CHECK.
OpResult ApplyWithEffects(SpecFs& spec, const OpCall& call, Inum forced_ino,
                          std::vector<InodeEffect>* effects);

// Undoes `effects` on `spec` (restores every `before`). Callers roll back
// helped operations in reverse Helplist order.
void RollbackEffects(SpecFs& spec, const std::vector<InodeEffect>& effects);

// Renames inode `from` to `to` in `spec`: the imap key and the link that
// refers to it. `parent` is the directory holding that link; the search
// falls back to every directory when `parent` is kInvalidInum or does not
// link `from`. Used when a helped creation's ghost placeholder becomes a
// concrete inum.
void RemapInum(SpecFs& spec, Inum from, Inum to, Inum parent);

// Same remapping applied to a recorded effect list.
void RemapInum(std::vector<InodeEffect>& effects, Inum from, Inum to);

}  // namespace atomfs

#endif  // ATOMFS_SRC_CRLH_EFFECTS_H_
