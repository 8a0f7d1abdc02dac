// Sequence database readers and writers.
//
// Two text formats are supported:
//
//  * FASTA-like: records of the form
//        >id [label=<int>]
//        ACDEFGH...
//    with sequence data possibly wrapped over multiple lines. Symbols are
//    one character each.
//
//  * TSV lines: one sequence per line, "id <TAB> label <TAB> text".
//    A label of -1 means unlabeled.
//
// Both readers are streaming-friendly: they hold one record in memory at a
// time, accept CRLF line endings, accept a final record without a trailing
// newline, and reject records larger than IoOptions::max_record_bytes with
// a clear error instead of ballooning memory on malformed or hostile input.
//
// The binary .sqdb format (seqdb_writer.h / seqdb_reader.h) is the
// preferred on-disk form for large corpora: these text readers materialize
// an in-RAM SequenceDatabase, while a .sqdb is served from an mmap.

#ifndef CLUSEQ_SEQ_IO_H_
#define CLUSEQ_SEQ_IO_H_

#include <cstddef>
#include <iosfwd>
#include <string>

#include "seq/sequence_database.h"
#include "seq/sequence_store.h"
#include "util/status.h"

namespace cluseq {

struct IoOptions {
  /// Hard cap on one record's sequence text (FASTA body across all its
  /// wrapped lines; TSV text field). A record over the cap fails the read
  /// with InvalidArgument naming the record — a guard against unbounded
  /// buffering on malformed input, generous enough for any real sequence.
  size_t max_record_bytes = 256ull << 20;
};

/// Reads FASTA-like data from a stream into `db` (appending). Characters are
/// interned into the database alphabet.
Status ReadFasta(std::istream& in, SequenceDatabase* db,
                 const IoOptions& options = {});

/// Reads FASTA-like data from a file.
Status ReadFastaFile(const std::string& path, SequenceDatabase* db,
                     const IoOptions& options = {});

/// Writes a sequence store in FASTA-like format. Fails with InvalidArgument
/// when any alphabet symbol has a multi-character name, since the readers
/// would split it into characters; such corpora belong in .sqdb.
Status WriteFasta(const SequenceStore& db, std::ostream& out);
Status WriteFastaFile(const SequenceStore& db, const std::string& path);

/// Reads TSV lines ("id\tlabel\ttext").
Status ReadTsv(std::istream& in, SequenceDatabase* db,
               const IoOptions& options = {});
Status ReadTsvFile(const std::string& path, SequenceDatabase* db,
                   const IoOptions& options = {});

/// Writes TSV lines; same single-character alphabet rule as WriteFasta.
Status WriteTsv(const SequenceStore& db, std::ostream& out);
Status WriteTsvFile(const SequenceStore& db, const std::string& path);

}  // namespace cluseq

#endif  // CLUSEQ_SEQ_IO_H_
