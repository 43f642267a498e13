// Functional NVM main-memory array.
//
// Stores data at rank-row granularity and *derives* the result of every PIM
// operation through the sensing models:
//
//  * intra-subarray multi-row ops go through the CSA reference machinery —
//    in `kNominal` mode via the word-parallel boolean equivalent (proven
//    equal to nominal analog sensing by the reference algebra and asserted
//    by tests), in `kAnalog` mode through the batched SenseBatch kernel
//    (64 bitlines per call, counter-based variation draws, sharded across
//    the thread pool), so sensing *can fail* when the operation exceeds the
//    technology's margin;
//  * inter-subarray / inter-bank ops use the digital add-on logic (always
//    exact).
//
// Storage is a per-bank arena: each bank owns a slot table (row-in-bank ->
// slot) plus stable slabs of contiguous row words, materialized lazily on
// first write.  Rows that were never written read as zero without
// allocating.  `row_view` exposes a row's words zero-copy; all row I/O is
// whole-word (masked head/tail for partial accesses), never per-bit.
//
// Unsupported shapes (e.g. 4-row AND, 4-row OR on STT-MRAM) throw — the
// hardware has no reference for them, and the scheduler above must never
// emit them.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "bitvec/bitvector.hpp"
#include "circuit/csa.hpp"
#include "common/random.hpp"
#include "mem/address.hpp"
#include "mem/fault_hooks.hpp"
#include "mem/wear.hpp"
#include "nvm/technology.hpp"

namespace pinatubo::mem {

enum class SenseFidelity {
  kNominal,  ///< variation-free; word-parallel boolean path
  kAnalog,   ///< sampled cell variation + SA offset (batched, thread-pooled)
};

class MainMemory {
 public:
  using Word = BitVector::Word;

  MainMemory(const Geometry& geo, nvm::Tech tech,
             SenseFidelity fidelity = SenseFidelity::kNominal,
             std::uint64_t seed = 1);

  const AddressCodec& codec() const { return codec_; }
  const Geometry& geometry() const { return codec_.geometry(); }
  nvm::Tech tech() const { return tech_; }
  const nvm::CellParams& cell() const { return *cell_; }
  const circuit::CsaModel& csa() const { return csa_; }
  SenseFidelity fidelity() const { return fidelity_; }

  /// Full-row write; `data` must be exactly rank_row_bits wide.
  void write_row(const RowAddr& addr, const BitVector& data);
  /// Writes `data` into the row starting at `bit_offset` (masked
  /// whole-word read-modify-write, not per-bit).
  void write_row_partial(const RowAddr& addr, std::size_t bit_offset,
                         const BitVector& data);
  /// Full-row read (all-zero for never-written rows).
  BitVector read_row(const RowAddr& addr) const;
  /// Reads `bits` starting at `bit_offset` (masked whole-word copies).
  BitVector read_row_partial(const RowAddr& addr, std::size_t bit_offset,
                             std::size_t bits) const;
  /// Whether the row has ever been written.
  bool row_exists(const RowAddr& addr) const;

  /// Zero-copy view of a row's words (ceil(rank_row_bits/64) of them).
  /// Never-written rows view a shared all-zero row.  Views into written
  /// rows stay valid and track later writes (slabs are stable); a view of
  /// the zero row does *not* follow the row once it is first written.
  std::span<const Word> row_view(const RowAddr& addr) const;

  /// Intra-subarray PIM op: multi-row activation + modified SA.  All
  /// operand rows must lie in the same subarray; shape must be supported
  /// by the CSA for this technology.  Returns the sensed row (full width).
  BitVector sense_rows(const std::vector<RowAddr>& rows, BitOp op);

  /// Number of distinct rows ever written (memory footprint proxy).
  std::size_t rows_written() const { return rows_written_; }

  /// Endurance ledger: every row write is recorded here.
  const WearTracker& wear() const { return wear_; }
  WearTracker& wear() { return wear_; }

  // ---- reliability seams ---------------------------------------------------

  /// Attaches a fault model (nullptr detaches; non-owning).  While
  /// attached, writes corrupt stored words through `FaultHooks::on_write`,
  /// and each sense hands its whole output row to one
  /// `FaultHooks::sense_flips` call, which XORs the flips into it.
  void set_fault_hooks(FaultHooks* hooks) { hooks_ = hooks; }
  FaultHooks* fault_hooks() const { return hooks_; }

  /// Redirects every future access to `logical` (all of find/materialize,
  /// wear accounting and fault keying) to `replacement` — the spare-row
  /// remap a reliability layer performs when a row goes persistently bad.
  /// Re-remapping a row overwrites the entry (the old spare is orphaned).
  /// Stored data is NOT copied; callers rewrite the row afterwards.
  void remap_row(const RowAddr& logical, const RowAddr& replacement);
  /// Number of rows currently remapped to spares.
  std::size_t remapped_rows() const { return remap_.size(); }
  /// The physical location `logical` resolves to (identity when unmapped).
  RowAddr physical(const RowAddr& logical) const;

  /// Senses performed so far (the fault model's simulated-time proxy).
  std::uint64_t sense_epoch() const { return sense_epoch_; }

  /// Forgets all stored rows, wear, remaps and the sense epoch — a fresh
  /// memory for back-to-back campaigns in one process.  The attached fault
  /// hooks (if any) are kept; reset them separately.
  void reset_campaign();

 private:
  /// Per-bank row storage: slot table + stable slabs of row words.
  /// Slabs are never reallocated, so row word pointers (and row_view
  /// spans) remain valid for the memory's lifetime.
  struct BankArena {
    std::vector<std::uint32_t> slots;  ///< row-in-bank -> slot index + 1
    std::vector<std::unique_ptr<Word[]>> slabs;
    std::uint32_t used = 0;  ///< slots handed out
  };
  static constexpr std::size_t kRowsPerSlab = 64;

  /// Words of the row, or nullptr if never materialized.  Single lookup.
  /// Applies the remap translation; `addr` is the logical coordinate.
  const Word* find_row(const RowAddr& addr) const;
  /// Words of the row, allocating a zeroed slot on first touch.
  Word* materialize_row(const RowAddr& addr);

  std::size_t bank_index(const RowAddr& a) const;
  std::size_t row_in_bank(const RowAddr& a) const;
  /// Wear accounting + persistent-fault hook shared by both write paths.
  void finish_write(const RowAddr& logical, Word* row, std::size_t bits,
                    std::size_t word_lo, std::size_t word_hi);

  AddressCodec codec_;
  nvm::Tech tech_;
  const nvm::CellParams* cell_;
  circuit::CsaModel csa_;
  SenseFidelity fidelity_;
  std::uint64_t seed_;
  std::uint64_t sense_epoch_ = 0;  ///< analog senses performed (RNG keying)
  std::size_t row_words_;
  std::vector<BankArena> banks_;
  std::vector<Word> zero_row_;
  std::size_t rows_written_ = 0;
  WearTracker wear_;
  FaultHooks* hooks_ = nullptr;
  /// Spare-row translation: encoded logical row id -> encoded physical id.
  std::unordered_map<std::uint64_t, std::uint64_t> remap_;
};

}  // namespace pinatubo::mem
