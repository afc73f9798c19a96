import csv
import dataclasses
import gc
import hashlib
import io
import json
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from trifuse import fileio
from trifuse.domain import STAGE_CADX, STAGE_CONSENSUS, CandidateTable, ReferenceTable, WorldPoint
from trifuse.errors import ConfigError, InputError
from trifuse.froc import match_lesions
from trifuse.fusion import TIER_BY_STAGE, CadxScores, FusedCandidate

from conftest import cand, ref
from oracles import (
    oracle_read_cadx_scores,
    oracle_read_candidates,
    oracle_read_fused,
    oracle_read_labeled_scores,
    oracle_read_match_files,
    oracle_read_references,
    oracle_record_read_references,
    oracle_row_columns,
    oracle_row_read_cadx_scores,
    oracle_row_read_candidates,
    oracle_row_read_fused,
    oracle_row_read_labeled_scores,
    oracle_row_read_match_files,
    oracle_row_read_references,
    oracle_segment,
    oracle_write_csv,
    oracle_write_fused_columns,
    oracle_write_fused_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


CANDIDATE_HEADER = "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,score,model\n"


class TestCandidateReader:
    def test_round_trip_values(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            CANDIDATE_HEADER + "s1,c1,1.5,-2.25,3.0,8.5,0.75,CADE_A\n"
            "s1,c2,0.1,0.2,0.3,,0.5,CADE_B\n",
        )
        cands = fileio.read_candidates(path)
        assert cands[0].center == WorldPoint(1.5, -2.25, 3.0)
        assert cands[0].diameter_mm == 8.5
        assert cands[1].diameter_mm is None

    def test_missing_column_named(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "scan_id,candidate_id,x_mm,y_mm,z_mm,diameter_mm,model\n"
            "s1,c1,1,2,3,,CADE_A\n",
        )
        with pytest.raises(InputError, match="column score missing"):
            fileio.read_candidates(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\ns1,c2,1,2,oops,,0.5,CADE_A\n",
        )
        with pytest.raises(InputError, match=r"c\.csv:3: column z_mm"):
            fileio.read_candidates(path)

    def test_out_of_range_score_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "s1,c1,1,2,3,,1.5,CADE_A\n")
        with pytest.raises(InputError):
            fileio.read_candidates(path)

    @pytest.mark.parametrize("cells, message", [
        ("1,2,3,,1.5", "column score must lie in [0, 1], got 1.5"),
        ("1,2,3,-4,0.5", "column diameter_mm must be positive, got -4.0"),
        ("1,2,3,0,0.5", "column diameter_mm must be positive, got 0.0"),
    ])
    def test_value_errors_name_file_line_and_column(self, tmp_path, cells, message):
        path = write(
            tmp_path / "c.csv",
            CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\n" + f"s1,c2,{cells},CADE_A\n",
        )
        with pytest.raises(InputError) as err:
            fileio.read_candidates(path)
        assert str(err.value) == f"{path}:3: {message}"

    def test_expected_model_enforced(self, tmp_path):
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_B\n")
        with pytest.raises(InputError, match="must be CADE_A"):
            fileio.read_candidates(path, expected_model="CADE_A")

    def test_duplicate_candidate_rejected(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\ns1,c1,9,9,9,,0.6,CADE_A\n",
        )
        with pytest.raises(InputError, match="duplicate candidate_id"):
            fileio.read_candidates(path)

    def test_ras_conversion(self, tmp_path):
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "s1,c1,10,-20,30,,0.5,CADE_A\n")
        (candidate,) = fileio.read_candidates(path, convention="ras")
        assert candidate.center == WorldPoint(-10.0, 20.0, 30.0)

    def test_comment_lines_skipped(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            "# manifest_digest=abc123\n" + CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\n",
        )
        assert len(fileio.read_candidates(path)) == 1

    def test_errors_name_physical_lines_after_comments_and_blanks(self, tmp_path):
        path = write(
            tmp_path / "comment.csv",
            "# manifest_digest=abc123\n" + CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\n"
            "s1,c2,1,2,3,,high,CADE_A\n",
        )
        with pytest.raises(InputError, match=r"comment\.csv:4: column score"):
            fileio.read_candidates(path)
        path = write(
            tmp_path / "blank.csv",
            CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\n\n# note\ns1,c2,1,2,3,,0.5,CADE_A,x\n",
        )
        with pytest.raises(InputError, match=r"blank\.csv:5: more cells"):
            fileio.read_candidates(path)

    def test_byte_order_mark_header_accepted(self, tmp_path):
        text = "# manifest_digest=abc123\n" + CANDIDATE_HEADER + "s1,c1,1,2,3,,0.5,CADE_A\n"
        plain = write(tmp_path / "plain.csv", text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert fileio.read_candidates(bom) == fileio.read_candidates(plain)
        bom.write_bytes(b"\xef\xbb\xbf" + text.split("\n", 1)[1].encode("utf-8"))
        assert fileio.read_candidates(bom) == fileio.read_candidates(plain)


class TestReferenceReader:
    def test_optional_fields_and_ratings(self, tmp_path):
        path = write(
            tmp_path / "r.csv",
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes,Subtlety,DiamEq_Rad\n"
            "s1,n1,1,2,3,8.0,cancer,4A,3,2,4,7.5\n"
            "s1,n2,4,5,6,5.0,,,,,,\n",
        )
        refs = fileio.read_references(path)
        assert refs[0].diagnosis == "cancer"
        assert refs[0].lungrads == "4A"
        assert refs[0].reviewers == 3 and refs[0].positive_votes == 2
        assert refs[0].ratings.subtlety == 4
        assert refs[0].ratings.diameter_rad_mm == 7.5
        assert refs[1].diagnosis == "unknown"
        assert refs[1].lungrads is None
        assert refs[1].ratings is None

    def test_invalid_votes_name_row(self, tmp_path):
        path = write(
            tmp_path / "r.csv",
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes\n"
            "s1,n1,1,2,3,8.0,benign,,2,3\n",
        )
        with pytest.raises(InputError, match=r"r\.csv:2"):
            fileio.read_references(path)


    def test_rating_error_names_file_and_line(self, tmp_path):
        path = write(
            tmp_path / "r.csv",
            "scan_id,nodule_id,x_mm,y_mm,z_mm,diameter_mm,diagnosis,lungrads,"
            "reviewers,positive_votes,Subtlety\n"
            "s1,n1,1,2,3,8.0,benign,,,,4\n"
            "s1,n2,1,2,3,8.0,benign,,,,6\n",
        )
        with pytest.raises(InputError, match=r"r\.csv:3: rating subtlety must be"):
            fileio.read_references(path)


class TestCadxScoreReader:
    def test_lookup_table(self, tmp_path):
        path = write(
            tmp_path / "x.csv",
            "scan_id,model,candidate_id,p_luna,p_dlcs\ns1,CADE_A,c1,0.2,0.6\n",
        )
        table = fileio.read_cadx_scores(path)
        assert table[("s1", "CADE_A", "c1")].p_luna == 0.2

    def test_read_only_mapping_in_file_order(self, tmp_path):
        path = write(
            tmp_path / "x.csv",
            "scan_id,model,candidate_id,p_luna,p_dlcs\n"
            "s2,CADE_B,c9,0.5,1\ns1,CADE_A,c1, 0.25 ,0\n",
        )
        table = fileio.read_cadx_scores(path)
        assert isinstance(table, Mapping) and not hasattr(table, "__setitem__")
        assert len(table) == 2 and list(table) == [("s2", "CADE_B", "c9"), ("s1", "CADE_A", "c1")]
        assert table[("s1", "CADE_A", "c1")] == CadxScores(0.25, 0.0)
        assert ("s1", "CADE_A", "c2") not in table
        with pytest.raises(KeyError):
            table[("s1", "CADE_A", "c2")]
        assert table == oracle_row_read_cadx_scores(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(
            tmp_path / "x.csv",
            "scan_id,model,candidate_id,p_luna,p_dlcs\n"
            "s1,CADE_A,c1,0.2,0.6\ns1,CADE_A,c1,0.3,0.4\n",
        )
        with pytest.raises(InputError, match="duplicate"):
            fileio.read_cadx_scores(path)


class TestFusedRoundTrip:
    def fused(self):
        return [
            FusedCandidate(
                scan_id="s1",
                center=WorldPoint(1.25, -2.5, 3.75),
                confidence_tier=1.0,
                stage="consensus",
                cade_score_avg=0.7,
                provenance=("CADE_A:a1", "CADE_B:b1"),
                diameter_mm=8.25,
            ),
            FusedCandidate(
                scan_id="s1",
                center=WorldPoint(4.0, 5.0, 6.0),
                confidence_tier=0.5,
                stage="cadx_promoted",
                cade_score_avg=0.4,
                provenance=("CADE_A:a2",),
                cadx_avg=0.3321,
            ),
        ]

    def test_write_then_read_reproduces_records(self, tmp_path):
        path = tmp_path / "fused.csv"
        fileio.write_fused_csv(path, self.fused(), manifest_digest="deadbeef")
        assert path.read_text().startswith("# manifest_digest=deadbeef\n")
        records = fileio.read_fused(path)
        assert len(records) == 2
        assert records[0].center == WorldPoint(1.25, -2.5, 3.75)
        assert records[0].confidence_tier == 1.0 and records[0].stage == "consensus"
        assert records[0].provenance == ("CADE_A:a1", "CADE_B:b1")
        assert records[0].cade_score_avg == 0.7
        assert records[1].cadx_avg == 0.3321
        assert records[0].candidate_id == "F0000"
        # fused output is re-ingestible as an evaluation candidate list
        cands = fileio.read_candidates(path)
        assert [c.source_model for c in cands] == ["FUSED", "FUSED"]

    @pytest.mark.parametrize("scan_id,provenance", [
        ("s1", "CADE_A:a2"), ("s1", "CADE_A:a,2"), ("s,1", "CADE_A:a2"), ('s"1"', "CADE_A:a2"),
        ("s\n1", "CADE_A:a2"), ("s\r1", "CADE_A:a2"), ("s\x001", "CADE_A:a2")])
    def test_bytes_match_the_record_writer(self, tmp_path, scan_id, provenance):
        # cells that csv.writer quotes or passes through as they are
        first, second = self.fused()
        fused = [dataclasses.replace(first, scan_id=scan_id),
                 dataclasses.replace(second, scan_id=scan_id, provenance=(provenance,))]
        for digest in ("abc", None):
            fileio.write_fused_csv(tmp_path / "got.csv", fused, digest)
            oracle_write_fused_csv(tmp_path / "expected.csv", fused, digest)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [2, fileio._FUSED_CHUNK])
    def test_joined_rows_match_csv_writer_on_hostile_cells(self, tmp_path, monkeypatch, chunk):
        # at two rows a chunk, some chunks hold a cell csv.writer quotes or
        # passes through as it is, and others are joined with ","
        monkeypatch.setattr(fileio, "_FUSED_CHUNK", chunk)
        rng = np.random.default_rng(81)
        n = 16
        scan_id, candidate_id = ["s1"] * n, [f"F{i:04d}" for i in range(n)]
        for row, cell in zip((2, 3, 7, 10, 12), ('s"1', "s,1", "s\r1", "s\n1", "s\x001")):
            scan_id[row] = cell
        candidate_id[9] = 'F"9'
        provenance = [("CADE_A:a1", "CADE_B:b1")] * n
        provenance[5] = ()  # an empty cell
        provenance[14] = ('CADE_A:a"1', "CADE_B:b,1")
        stage = [STAGE_CADX if i % 3 else STAGE_CONSENSUS for i in range(n)]
        promoted = np.array([s == STAGE_CADX for s in stage])
        table = CandidateTable(
            scan_id, candidate_id, ["FUSED"] * n, rng.normal(0.0, 100.0, (n, 3)),
            np.where(rng.random(n) < 0.3, np.nan, rng.uniform(3.0, 30.0, n)), rng.random(n),
            tier=np.array([TIER_BY_STAGE[s] for s in stage]), stage=stage,
            cadx_avg=np.where(promoted, rng.random(n), np.nan), provenance=provenance)
        for digest in ("abc", None):
            got = fileio.write_fused_csv(tmp_path / "got.csv", table, digest)
            expected = oracle_write_fused_columns(tmp_path / "expected.csv", table, digest)
            assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("scan_id", ["s1", "s,1", 's"1"'])
    def test_read_list_writes_the_same_bytes(self, tmp_path, scan_id):
        # the first row's provenance holds two ids; a second scan keeps its own numbering
        first, second = self.fused()
        fused = [dataclasses.replace(first, scan_id=scan_id), second,
                 dataclasses.replace(second, scan_id=scan_id)]
        path, again = tmp_path / "fused.csv", tmp_path / "again.csv"
        fileio.write_fused_csv(path, fused, manifest_digest="deadbeef")
        digest = path.read_text().splitlines()[0].removeprefix("# manifest_digest=")
        fileio.write_fused_csv(again, fileio.read_fused(path), digest)
        assert again.read_bytes() == path.read_bytes()

    def test_records_keep_their_ids(self, tmp_path):
        # a file whose rows on s1 are F0001, F0000 writes back the same from
        # its table and from its records
        path, again = tmp_path / "fused.csv", tmp_path / "again.csv"
        fileio.write_fused_csv(path, self.fused(), manifest_digest="d")
        path.write_text(path.read_text().replace("F0000", "F").replace("F0001", "F0000")
                        .replace("F,", "F0001,"))
        assert [f.candidate_id for f in fileio.read_fused(path)] == ["F0001", "F0000"]
        for fused in (fileio.read_fused(path), list(fileio.read_fused(path))):
            fileio.write_fused_csv(again, fused, "d")
            assert again.read_bytes() == path.read_bytes()
        first, second = self.fused()
        with pytest.raises(InputError, match="all have a candidate_id, or none"):
            fileio.write_fused_csv(again, [dataclasses.replace(first, candidate_id="F0000"),
                                           second])

    def test_float_round_trip_is_exact(self, tmp_path):
        values = [0.1, 1 / 3, 2.0 ** -40, 12345.6789]
        fused = [
            FusedCandidate(
                scan_id="s1",
                center=WorldPoint(v, -v, v * 3),
                confidence_tier=0.2,
                stage="cade_refined",
                cade_score_avg=min(v % 1.0, 1.0) or 0.5,
                provenance=(f"CADE_A:a{i}",),
            )
            for i, v in enumerate(values)
        ]
        path = tmp_path / "fused.csv"
        fileio.write_fused_csv(path, fused)
        records = fileio.read_fused(path)
        for original, record in zip(fused, records):
            assert record.center == original.center
            assert record.cade_score_avg == original.cade_score_avg


FUSED_HEADER = ",".join(fileio.FUSED_COLUMNS) + "\n"


class TestFusedReaderRules:
    """``read_fused`` accepts only rows that ``fuse`` can write."""

    def read(self, tmp_path, row):
        path = write(
            tmp_path / "fused.csv",
            "# manifest_digest=abc\n" + FUSED_HEADER
            + "s1,F0000,1,2,3,6.5,0.7,FUSED,1.0,consensus,,CADE_A:a1|CADE_B:b1\n" + row + "\n",
        )
        return fileio.read_fused(path)

    def test_valid_rows(self, tmp_path):
        records = self.read(tmp_path, "s1,F0001,1,2,3,,0.4,FUSED,0.5,cadx_promoted,1.0,CADE_A:a2")
        assert [r.stage for r in records] == ["consensus", "cadx_promoted"]
        assert records[1].cadx_avg == 1.0 and records[1].diameter_mm is None

    def test_score_in_unit_interval(self, tmp_path):
        with pytest.raises(InputError, match=r"fused\.csv:4: column score must lie in \[0, 1\]"):
            self.read(tmp_path, "s1,F0001,1,2,3,,7.5,FUSED,0.2,cade_refined,,CADE_A:a2")

    def test_diameter_positive(self, tmp_path):
        with pytest.raises(InputError, match=r"fused\.csv:4: column diameter_mm must be positive"):
            self.read(tmp_path, "s1,F0001,1,2,3,-4,0.5,FUSED,0.2,cade_refined,,CADE_A:a2")

    def test_tier_matches_stage(self, tmp_path):
        with pytest.raises(InputError,
                           match=r"fused\.csv:4: column tier must be 1\.0 for stage consensus"):
            self.read(tmp_path, "s1,F0001,1,2,3,,0.5,FUSED,0.3,consensus,,CADE_A:a2|CADE_B:b2")

    def test_cadx_avg_in_unit_interval(self, tmp_path):
        with pytest.raises(InputError, match=r"fused\.csv:4: column cadx_avg must lie in \[0, 1\]"):
            self.read(tmp_path, "s1,F0001,1,2,3,,0.5,FUSED,0.5,cadx_promoted,9,CADE_A:a2")

    def test_candidate_id_unique_per_scan(self, tmp_path):
        assert len(self.read(tmp_path, "s2,F0000,1,2,3,,0.5,FUSED,0.2,cade_refined,,CADE_A:a2")) == 2
        with pytest.raises(InputError,
                           match=r"fused\.csv:4: duplicate candidate_id 'F0000' on scan 's1'"):
            self.read(tmp_path, "s1,F0000,1,2,3,,0.5,FUSED,0.2,cade_refined,,CADE_A:a2")

    def test_cadx_avg_exactly_for_cadx_promoted(self, tmp_path):
        with pytest.raises(InputError, match=r"fused\.csv:4: column cadx_avg is empty"):
            self.read(tmp_path, "s1,F0001,1,2,3,,0.5,FUSED,0.5,cadx_promoted,,CADE_A:a2")
        with pytest.raises(InputError, match=r"fused\.csv:4: column cadx_avg must be empty"):
            self.read(tmp_path, "s1,F0001,1,2,3,,0.5,FUSED,0.2,cade_refined,0.3,CADE_A:a2")


class TestMatchesCsv:
    def test_round_trip(self, tmp_path):
        refs = [ref("s1", "n1", 0, 0, 0, 8.0), ref("s1", "n2", 50, 0, 0, 8.0)]
        cands = [cand("s1", "c1", 0, 0, 0, 0.9)]
        result = match_lesions(cands, refs)
        path = tmp_path / "matches.csv"
        fileio.write_matches_csv(path, result, "modelX", manifest_digest="cafe")
        tables = fileio.read_match_files([path])
        assert tables == {"modelX": {("s1", "n1"): 0.9, ("s1", "n2"): None}}


    def test_key_repeated_in_a_later_file(self, tmp_path):
        header = ",".join(fileio.MATCH_COLUMNS) + "\n"
        first = write(tmp_path / "a.csv", header + "s1,n1,1,0.5,m1\ns1,n2,0,,m1\n")
        other = write(tmp_path / "b.csv", header + "s1,n1,1,0.25,m2\n")
        again = write(tmp_path / "c.csv", header + "s1,n3,0,,m1\ns1,n2,1,0.5,m1\n")
        tables = fileio.read_match_files([first, other])
        assert tables == {"m1": {("s1", "n1"): 0.5, ("s1", "n2"): None},
                          "m2": {("s1", "n1"): 0.25}}
        for read in (fileio.read_match_files, oracle_row_read_match_files):
            with pytest.raises(InputError) as got:
                read([first, other, again])
            assert str(got.value) == f"{again}:3: duplicate match entry for ('s1', 'n2')"


class TestReports:
    def test_read_tab_separated(self, tmp_path):
        path = write(tmp_path / "rep.tsv", "r1\ts1\t8 mm nodule\nr2\ts2\ttext\twith\ttabs\n")
        rows = fileio.read_reports(path)
        assert rows[0] == ("r1", "s1", "8 mm nodule")
        assert rows[1] == ("r2", "s2", "text\twith\ttabs")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "rep.tsv", "")
        assert fileio.read_reports(path) == []

    def test_short_line_rejected(self, tmp_path):
        path = write(tmp_path / "rep.tsv", "r1\ts1\n")
        with pytest.raises(InputError, match="expected 3"):
            fileio.read_reports(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "rep.tsv"
        path.write_bytes(b"\xef\xbb\xbf# exported\nr1\ts1\t8 mm nodule\n")
        assert fileio.read_reports(path) == [("r1", "s1", "8 mm nodule")]

    def test_ids_stripped_as_csv_ids_are(self, tmp_path):
        path = write(tmp_path / "rep.tsv", " r1 \ts1 \t 8 mm nodule \n")
        assert fileio.read_reports(path) == [("r1", "s1", " 8 mm nodule ")]

    @pytest.mark.parametrize("line, column", [
        ("\ts1\t8 mm nodule", "report_id"),
        ("r2\t \t8 mm nodule", "scan_id"),
    ])
    def test_empty_id_rejected_with_its_line(self, tmp_path, line, column):
        path = write(tmp_path / "rep.tsv", f"r1\ts1\tnodule\n# note\n{line}\n")
        with pytest.raises(InputError) as err:
            fileio.read_reports(path)
        assert str(err.value) == f"{path}:3: column {column} is empty"


def not_utf8(path):
    return f"{path}: not UTF-8 text: cannot decode byte 0xe9"


class TestTextThatIsNotUtf8:
    """A byte that cannot be decoded is an input error naming the physical
    line it is on, wherever the file is in its reading; a byte-order mark
    is still dropped."""

    @pytest.mark.parametrize("bad_row", [0, 3, 6000])  # the first chunk, or well past it
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_candidate_csv(self, tmp_path, bad_row, eol):
        rows = [f"s1,c{i},1,2,3,,0.5,CADE_A{eol}".encode() for i in range(6010)]
        rows[bad_row] = rows[bad_row].replace(b"s1", b"s\xe9")
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbf# note" + eol.encode() + CANDIDATE_HEADER.replace(
            "\n", eol).encode() + b"".join(rows))
        with pytest.raises(InputError) as err:
            fileio.read_candidates(path)
        assert str(err.value) == not_utf8(f"{path}:{bad_row + 3}")

    def test_reports(self, tmp_path):
        path = tmp_path / "rep.tsv"
        path.write_bytes(b"\xef\xbb\xbfr1\ts1\tnodule\r\n# note\r\nr2\ts\xe9\tnodule\r\n")
        with pytest.raises(InputError) as err:
            fileio.read_reports(path)
        assert str(err.value) == not_utf8(f"{path}:3")

    def test_config(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_bytes(b"\xef\xbb\xbfseed=3\n# caf\xe9\n")
        with pytest.raises(ConfigError) as err:
            fileio.parse_config_file(path)
        assert str(err.value) == not_utf8(f"{path}:2")


class TestManifest:
    def test_digest_stable_across_time_and_paths(self, tmp_path):
        a = write(tmp_path / "a.csv", "x\n1\n")
        m1 = fileio.build_manifest("eval", {"k": 1}, {"input": a}, seed=17)
        m2 = fileio.build_manifest("eval", {"k": 1}, {"input": a}, seed=17)
        assert m1["digest"] == m2["digest"]
        assert m1["created_utc"] != "" and "inputs" in m1
        moved = tmp_path / "sub"
        moved.mkdir()
        b = write(moved / "b.csv", "x\n1\n")
        m3 = fileio.build_manifest("eval", {"k": 1}, {"input": b}, seed=17)
        assert m3["digest"] == m1["digest"]  # same content, different path

    def test_digest_tracks_content_config_and_seed(self, tmp_path):
        a = write(tmp_path / "a.csv", "x\n1\n")
        base = fileio.build_manifest("eval", {"k": 1}, {"input": a}, seed=17)
        changed = write(tmp_path / "a2.csv", "x\n2\n")
        assert fileio.build_manifest("eval", {"k": 1}, {"input": changed}, 17)["digest"] != base["digest"]
        assert fileio.build_manifest("eval", {"k": 2}, {"input": a}, 17)["digest"] != base["digest"]
        assert fileio.build_manifest("eval", {"k": 1}, {"input": a}, 18)["digest"] != base["digest"]


class TestJsonSerialization:
    def test_round_sig(self):
        assert fileio.round_sig(0.123456789) == 0.123457
        assert fileio.round_sig(123456789.0) == 123457000.0
        assert fileio.round_sig(0.0) == 0.0
        assert fileio.round_sig(-0.000123456789) == -0.000123457

    def test_write_json_rounding_and_determinism(self, tmp_path):
        payload = {"b": 1 / 3, "a": [2 / 3, {"c": 1e-12}]}
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        fileio.write_json(p1, payload, sig=6)
        fileio.write_json(p2, payload, sig=6)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text())
        assert loaded["b"] == 0.333333
        assert loaded["a"][0] == 0.666667


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = write(tmp_path / "cfg", "# comment\ntau-cadx=0.15\nseed = 3\n")
        assert fileio.parse_config_file(path) == {"tau-cadx": ("0.15", 2), "seed": ("3", 3)}

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_lines_end_only_at_line_breaks(self, tmp_path, mark):
        # str.splitlines() would also break line 1 at ``mark``, and then
        # name line 2 for its second half
        path = tmp_path / "cfg"
        path.write_text(f"seed=3{mark}x\rresamples=5\r\nbad\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            fileio.parse_config_file(path)
        assert str(err.value) == f"{path}:3: expected key=value, got 'bad'"
        path.write_text(f"seed=3{mark}x\rresamples=5\r\n", encoding="utf-8")
        assert fileio.parse_config_file(path) == {"seed": (f"3{mark}x", 1), "resamples": ("5", 2)}

    def test_malformed_rejected(self, tmp_path):
        path = write(tmp_path / "cfg", "tau-cadx 0.15\n")
        with pytest.raises(ConfigError):
            fileio.parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path / "cfg", "seed=1\nseed=2\n")
        with pytest.raises(ConfigError):
            fileio.parse_config_file(path)


# ---------------------------------------------------------------------------
# The positional readers against the earlier DictReader-based ones


def messy_csv(rng, path, header, rows, quotes=True, eol="\n"):
    """Write ``rows`` (dicts of cell text) the ways real exports differ.

    Columns come in a random order with padded names, sometimes after an
    earlier column of the same name, and with a trailing ``note`` column that
    some rows fill with a quoted multi-line cell (unless ``quotes`` is false)
    and some leave out along with trailing empty cells (short rows); comment
    and blank lines sit between rows; the file may start with a byte-order
    mark and a digest comment. Lines end with ``eol``. Returns the physical
    line each row ends on.
    """
    columns = [header[i] for i in rng.permutation(len(header))] + ["note"]
    shadowed = str(rng.choice(header)) if rng.random() < 0.3 else None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    if rng.random() < 0.5:
        out.write(f"# manifest_digest=abc{eol}")
    names = [f" {c}" if rng.random() < 0.3 else c for c in columns]
    writer.writerow(names if shadowed is None else [shadowed] + names)
    ends = []
    for row in rows:
        if rng.random() < 0.1:
            out.write(eol if rng.random() < 0.5 else f"# between rows{eol}")
        cells = [row.get(c, "") for c in columns[:-1]]
        note = rng.random()
        if note < 0.1 and quotes:
            cells.append("two\nlines")
        elif note < 0.6:
            cells.append("n")
        elif note < 0.8:
            while cells and not cells[-1]:
                cells.pop()
        # a repeated column name: the later column is the one read
        writer.writerow(cells if shadowed is None else ["shadowed"] + cells)
        ends.append(out.getvalue().count("\n"))
    text = out.getvalue()
    data = text.encode("utf-8")
    path.write_bytes(b"\xef\xbb\xbf" + data if rng.random() < 0.5 else data)
    return ends


def number_text(rng, value):
    style = rng.integers(4)
    if style == 0:
        return repr(value)
    if style == 1:
        return f"{value:.3f}"
    if style == 2:
        return f" {value!r} "
    return f"{value:.6e}"


def candidate_rows(rng, n, model=None):
    rows = []
    for i in range(n):
        rows.append({
            "scan_id": f"scan{rng.integers(4)}",
            "candidate_id": f"c{i}",
            "x_mm": number_text(rng, float(rng.uniform(-200, 200))),
            "y_mm": number_text(rng, float(rng.uniform(-200, 200))),
            "z_mm": number_text(rng, float(rng.uniform(-400, 0))),
            "diameter_mm": "" if rng.random() < 0.3 else number_text(rng, float(rng.uniform(0.5, 30))),
            "score": str(rng.choice(["0", "1", "1.0", " 0.5 ", repr(float(rng.random()))])),
            "model": model or str(rng.choice(["CADE_A", "CADE_B", "FUSED"])),
        })
    return rows


def fused_rows_text(rng, n):
    rows = []
    for i, row in enumerate(candidate_rows(rng, n, "FUSED")):
        stage = str(rng.choice(list(TIER_BY_STAGE)))
        row["candidate_id"] = f"F{i:04d}"
        row["tier"] = str(rng.choice([repr(TIER_BY_STAGE[stage]), f" {TIER_BY_STAGE[stage]}"]))
        row["stage"] = stage
        row["cadx_avg"] = repr(float(rng.random())) if stage == "cadx_promoted" else ""
        row["provenance"] = "|".join(f"CADE_A:a{j}" for j in range(int(rng.integers(1, 4))))
        rows.append(row)
    return rows


def reference_rows(rng, n, rating_columns):
    rows = []
    for i in range(n):
        reviewers = int(rng.integers(1, 5)) if rng.random() < 0.7 else None
        row = {
            "scan_id": f"scan{rng.integers(4)}",
            "nodule_id": f"n{i}",
            "x_mm": number_text(rng, float(rng.uniform(-200, 200))),
            "y_mm": number_text(rng, float(rng.uniform(-200, 200))),
            "z_mm": number_text(rng, float(rng.uniform(-400, 0))),
            "diameter_mm": number_text(rng, float(rng.uniform(3, 30))),
            "diagnosis": str(rng.choice(["", "benign", "cancer", "unknown"])),
            "lungrads": str(rng.choice(["", "2", "4A", "4X"])),
            "reviewers": "" if reviewers is None else str(reviewers),
            "positive_votes": "" if reviewers is None else str(rng.integers(0, reviewers + 1)),
        }
        for column in rating_columns:
            if rng.random() < 0.7:
                row[column] = (number_text(rng, float(rng.uniform(1, 30)))
                               if column == "DiamEq_Rad" else str(rng.integers(1, 5)))
        rows.append(row)
    return rows


RATING_COLUMNS = ("Subtlety", "Malignancy", "Texture", "Spiculation", "Lobulation",
                  "Margin", "Sphericity", "InternalStructure", "Calcification", "DiamEq_Rad")


class TestReadersAgainstOracle:
    def test_candidates(self, tmp_path):
        rng = np.random.default_rng(51)
        for k in range(30):
            path = tmp_path / f"c{k}.csv"
            model = "CADE_A" if k % 3 == 0 else None
            messy_csv(rng, path, fileio.CANDIDATE_COLUMNS,
                      candidate_rows(rng, int(rng.integers(0, 40)), model))
            for convention in ("lps", "ras"):
                got = fileio.read_candidates(path, convention, expected_model=model)
                assert got == oracle_read_candidates(path, convention, expected_model=model)

    def test_cadx_scores(self, tmp_path):
        rng = np.random.default_rng(52)
        for k in range(20):
            rows = [{"scan_id": f"scan{rng.integers(3)}", "model": "CADE_B",
                     "candidate_id": f"c{i}", "p_luna": number_text(rng, float(rng.random())),
                     "p_dlcs": str(rng.choice(["0", "1", repr(float(rng.random()))]))}
                    for i in range(int(rng.integers(0, 40)))]
            path = tmp_path / f"x{k}.csv"
            messy_csv(rng, path, fileio.CADX_SCORE_COLUMNS, rows)
            assert fileio.read_cadx_scores(path) == oracle_read_cadx_scores(path)

    def test_references(self, tmp_path):
        rng = np.random.default_rng(53)
        for k in range(20):
            ratings = [c for c in RATING_COLUMNS if rng.random() < 0.5]
            path = tmp_path / f"r{k}.csv"
            messy_csv(rng, path, fileio.REFERENCE_COLUMNS + tuple(ratings),
                      reference_rows(rng, int(rng.integers(0, 30)), ratings))
            for convention in ("lps", "ras"):
                assert fileio.read_references(path, convention) == (
                    oracle_read_references(path, convention)
                )

    def test_fused(self, tmp_path):
        rng = np.random.default_rng(54)
        for k in range(20):
            path = tmp_path / f"f{k}.csv"
            messy_csv(rng, path, fileio.FUSED_COLUMNS, fused_rows_text(rng, int(rng.integers(0, 30))))
            for convention in ("lps", "ras"):
                assert fileio.read_fused(path, convention) == oracle_read_fused(path, convention)

    def test_match_files_and_labeled_scores(self, tmp_path):
        rng = np.random.default_rng(55)
        paths = []
        for k in range(4):
            rows = []
            for i in range(int(rng.integers(0, 30))):
                detected = int(rng.integers(2))
                rows.append({"scan_id": f"scan{rng.integers(3)}", "nodule_id": f"n{i}",
                             "detected": f" {detected}",
                             "score": repr(float(rng.random())) if detected or rng.random() < 0.3
                             else "", "model": f"m{k}"})
            paths.append(tmp_path / f"m{k}.csv")
            messy_csv(rng, paths[-1], fileio.MATCH_COLUMNS, rows)
        assert fileio.read_match_files(paths) == oracle_read_match_files(paths)
        path = tmp_path / "labeled.csv"
        messy_csv(rng, path, fileio.LABELED_SCORE_COLUMNS,
                  [{"scan_id": "s", "candidate_id": f"c{i}", "score": number_text(rng, float(i)),
                    "label": str(rng.choice(["cancer", "no-cancer"]))} for i in range(25)])
        assert fileio.read_labeled_scores(path) == oracle_read_labeled_scores(path)

    @pytest.mark.parametrize("column, bad", [
        ("score", "1.5"), ("score", "-0.25"), ("score", "nan"), ("score", "high"), ("score", ""),
        ("diameter_mm", "0"), ("diameter_mm", "-4"), ("x_mm", "inf"), ("y_mm", "oops"),
        ("z_mm", " "), ("scan_id", ""), ("candidate_id", "c0"), ("model", " "),
    ])
    def test_candidate_errors_name_file_line_and_column(self, tmp_path, column, bad):
        rng = np.random.default_rng(56)
        for k in range(5):
            rows = candidate_rows(rng, 12)
            at = int(rng.integers(1, 12))
            rows[at][column] = bad
            if column == "candidate_id":
                rows[at]["scan_id"], rows[at]["model"] = rows[0]["scan_id"], rows[0]["model"]
            path = tmp_path / f"bad{k}.csv"
            line = messy_csv(rng, path, fileio.CANDIDATE_COLUMNS, rows)[at]
            with pytest.raises(InputError) as got:
                fileio.read_candidates(path)
            with pytest.raises(InputError):
                oracle_read_candidates(path)
            message = str(got.value)
            assert message.startswith(f"{path}:{line}: ")
            assert column in message

    def test_extra_cell_names_line(self, tmp_path):
        rng = np.random.default_rng(57)
        rows = candidate_rows(rng, 6)
        path = tmp_path / "extra.csv"
        ends = messy_csv(rng, path, fileio.CANDIDATE_COLUMNS, rows)
        lines = path.read_text(encoding="utf-8-sig").split("\n")
        lines[ends[3] - 1] += ",n,surplus"
        path.write_text("\n".join(lines), encoding="utf-8")
        for reader in (fileio.read_candidates, oracle_read_candidates):
            with pytest.raises(InputError, match=rf"extra\.csv:{ends[3]}: more cells"):
                reader(path)


# ---------------------------------------------------------------------------
# The column readers against the row-by-row readers they replaced


def same_outcome(read, oracle):
    """Equal records, or the same error message, from both readers."""
    try:
        expected = oracle()
    except InputError as err:
        with pytest.raises(InputError) as got:
            read()
        assert str(got.value) == str(err)
        return False
    assert read() == expected
    return True


BAD_NUMBERS = ("", " ", "nan", "inf", "-inf", "x1", "1e999", "1.5", "-0.5", "0", "-4", " 0.5 ")


def corrupt(rng, rows, columns, key_columns, extra=()):
    """Spoil one to three cells of ``rows``, sometimes repeat a key."""
    for _ in range(int(rng.integers(1, 4))):
        row = rows[int(rng.integers(len(rows)))]
        column = str(rng.choice(columns))
        pool = BAD_NUMBERS + extra if column not in key_columns else ("", " ") + extra
        row[column] = str(rng.choice(pool))
    if rng.random() < 0.4 and len(rows) > 1:
        i, j = sorted(rng.choice(len(rows), 2, replace=False).tolist())
        for column in key_columns:
            rows[j][column] = rows[i][column]


def add_long_row(rng, path, ends, width):
    """Give one row more cells than the header has."""
    lines = path.read_bytes().decode("utf-8-sig").split("\n")
    lines[ends[int(rng.integers(len(ends)))] - 1] += ",x" * (width + 2)
    path.write_text("\n".join(lines), encoding="utf-8")


class TestColumnReadersAgainstRowOracle:
    def test_candidates(self, tmp_path):
        rng = np.random.default_rng(61)
        outcomes = []
        for k in range(150):
            model = "CADE_A" if k % 3 == 0 else None
            rows = candidate_rows(rng, int(rng.integers(1, 25)), model)
            if k % 5:
                corrupt(rng, rows, fileio.CANDIDATE_COLUMNS,
                        ("scan_id", "candidate_id", "model"), ("CADE_B",))
            path = tmp_path / f"c{k}.csv"
            ends = messy_csv(rng, path, fileio.CANDIDATE_COLUMNS, rows)
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(fileio.CANDIDATE_COLUMNS))
            for convention in ("lps", "ras"):
                outcomes.append(same_outcome(
                    lambda: fileio.read_candidates(path, convention, expected_model=model),
                    lambda: oracle_row_read_candidates(path, convention, expected_model=model)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    def test_fused(self, tmp_path):
        rng = np.random.default_rng(62)
        outcomes = []
        for k in range(150):
            rows = fused_rows_text(rng, int(rng.integers(1, 25)))
            if k % 5:
                corrupt(rng, rows, fileio.FUSED_COLUMNS,
                        ("scan_id", "candidate_id", "stage", "provenance"),
                        ("consensus", "cadx_promoted", "cade_refined", "bogus", "0.2", "1.0"))
            path = tmp_path / f"f{k}.csv"
            ends = messy_csv(rng, path, fileio.FUSED_COLUMNS, rows)
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(fileio.FUSED_COLUMNS))
            for convention in ("lps", "ras"):
                outcomes.append(same_outcome(lambda: fileio.read_fused(path, convention),
                                             lambda: oracle_row_read_fused(path, convention)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    def test_cadx_scores(self, tmp_path):
        rng = np.random.default_rng(63)
        outcomes = []
        for k in range(100):
            rows = [{"scan_id": f"scan{rng.integers(3)}", "model": "CADE_B",
                     "candidate_id": f"c{i}", "p_luna": number_text(rng, float(rng.random())),
                     "p_dlcs": repr(float(rng.random()))} for i in range(int(rng.integers(1, 25)))]
            if k % 5:
                corrupt(rng, rows, fileio.CADX_SCORE_COLUMNS, ("scan_id", "model", "candidate_id"))
            path = tmp_path / f"x{k}.csv"
            ends = messy_csv(rng, path, fileio.CADX_SCORE_COLUMNS, rows)
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(fileio.CADX_SCORE_COLUMNS))
            outcomes.append(same_outcome(lambda: fileio.read_cadx_scores(path),
                                         lambda: oracle_row_read_cadx_scores(path)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    def test_row_by_row_readers(self, tmp_path):
        rng = np.random.default_rng(64)
        for k in range(60):
            ratings = [c for c in RATING_COLUMNS if rng.random() < 0.5]
            rows = reference_rows(rng, int(rng.integers(1, 15)), ratings)
            if k % 3:
                corrupt(rng, rows, fileio.REFERENCE_COLUMNS + tuple(ratings),
                        ("scan_id", "nodule_id"), ("cancer", "4A", "9"))
            path = tmp_path / f"r{k}.csv"
            ends = messy_csv(rng, path, fileio.REFERENCE_COLUMNS + tuple(ratings), rows)
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(fileio.REFERENCE_COLUMNS) + len(ratings))
            same_outcome(lambda: fileio.read_references(path),
                         lambda: oracle_row_read_references(path))
            rows = [{"scan_id": "s", "candidate_id": f"c{i}", "score": repr(float(i)),
                     "label": str(rng.choice(["cancer", "no-cancer", "", " "]))}
                    for i in range(10)]
            corrupt(rng, rows, ("score",), ())
            path = tmp_path / f"l{k}.csv"
            messy_csv(rng, path, fileio.LABELED_SCORE_COLUMNS, rows)
            same_outcome(lambda: fileio.read_labeled_scores(path),
                         lambda: oracle_row_read_labeled_scores(path))
            rows = [{"scan_id": "s", "nodule_id": f"n{i}", "detected": str(rng.integers(3)),
                     "score": str(rng.choice(["", "0.5"])), "model": "m"} for i in range(10)]
            corrupt(rng, rows, ("score", "detected"), ("scan_id", "nodule_id"))
            path = tmp_path / f"m{k}.csv"
            messy_csv(rng, path, fileio.MATCH_COLUMNS, rows)
            same_outcome(lambda: fileio.read_match_files([path]),
                         lambda: oracle_row_read_match_files([path]))

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_bad_cell_and_duplicate_key_in_row_order(self, tmp_path, bad_first):
        rows = [f"s1,c{i},1,2,3,,0.5,CADE_A" for i in range(6)]
        rows[4] = "s1,c1,1,2,3,,0.5,CADE_A"  # repeats row 1's key
        rows[2 if bad_first else 5] = "s1,c9,1,oops,3,,0.5,CADE_A"
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(InputError) as got:
            fileio.read_candidates(path)
        expected = (f"{path}:4: column y_mm is not a number: 'oops'" if bad_first else
                    f"{path}:6: duplicate candidate_id 'c1' for model 'CADE_A' on scan 's1'")
        assert str(got.value) == expected
        with pytest.raises(InputError) as old:
            oracle_row_read_candidates(path)
        assert str(old.value) == expected

    def test_number_cell_with_a_separator_is_quoted_as_it_is(self, tmp_path):
        # str.strip drops \x1c, float() does not accept it: quoting the
        # stripped text would call a valid-looking number not a number
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "s1,c0,\x1c1.5,2,3,,0.5,CADE_A\n")
        for reader in (fileio.read_candidates, oracle_row_read_candidates):
            with pytest.raises(InputError) as got:
                reader(path)
            assert str(got.value) == f"{path}:2: column x_mm is not a number: '\\x1c1.5'"

    def test_long_row_after_bad_cell(self, tmp_path):
        rows = [f"s1,c{i},1,2,3,,0.5,CADE_A" for i in range(6)]
        rows[2] = "s1,c2,1,2,3,,0.5,"
        rows[4] += ",surplus"
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "\n".join(rows) + "\n")
        for reader in (fileio.read_candidates, oracle_row_read_candidates):
            with pytest.raises(InputError) as got:
                reader(path)
            assert str(got.value) == f"{path}:4: column model is empty"
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "\n".join(rows[3:]) + "\n")
        for reader in (fileio.read_candidates, oracle_row_read_candidates):
            with pytest.raises(InputError, match=rf"c\.csv:3: more cells than header columns"):
                reader(path)


# ---------------------------------------------------------------------------
# The reference table against both record-era readers


REFERENCE_HEADER = ",".join(fileio.REFERENCE_COLUMNS)


class TestReferenceTable:
    @pytest.mark.parametrize("ratings", [RATING_COLUMNS, (), ("DiamEq_Rad",),
                                         ("Subtlety", "InternalStructure", "DiamEq_Rad")])
    def test_records_equal_both_oracles(self, tmp_path, ratings):
        rng = np.random.default_rng([91, len(ratings)])
        for k in range(12):
            rows = reference_rows(rng, int(rng.integers(0, 30)), ratings)
            for row in rows[::3]:  # some rows without any rating
                for column in ratings:
                    row.pop(column, None)
            path = tmp_path / f"r{k}.csv"
            messy_csv(rng, path, fileio.REFERENCE_COLUMNS + tuple(ratings), rows)
            for convention in ("lps", "ras"):
                table = fileio.read_references(path, convention)
                records = list(table)
                assert records == oracle_read_references(path, convention)
                assert records == oracle_row_read_references(path, convention)
                assert records == oracle_record_read_references(path, convention)
                assert len(table) == len(rows) and table == records
                if records:
                    assert table[-1] == records[-1] and table[1:] == records[1:]
                    assert any(r.ratings is None for r in records)
                assert all(r.ratings is not None for r in records if r.nodule_id in {
                    row["nodule_id"] for row in rows
                    if any(row.get(c, "").strip() for c in ratings)})

    def test_table_of_records_reads_as_them(self, tmp_path):
        rng = np.random.default_rng(92)
        path = tmp_path / "r.csv"
        messy_csv(rng, path, fileio.REFERENCE_COLUMNS + RATING_COLUMNS,
                  reference_rows(rng, 25, RATING_COLUMNS))
        records = oracle_row_read_references(path)
        table = ReferenceTable.from_records(records)
        assert table == records and len(table) == len(records)
        assert table.keys == [r.key for r in records]
        assert ReferenceTable.of(table) is table

    def test_corrupted_files_read_as_the_record_reader(self, tmp_path):
        rng = np.random.default_rng(93)
        outcomes = []
        for k in range(120):
            ratings = [c for c in RATING_COLUMNS if rng.random() < 0.5]
            header = fileio.REFERENCE_COLUMNS + tuple(ratings)
            rows = reference_rows(rng, int(rng.integers(1, 15)), ratings)
            if k % 3:
                corrupt(rng, rows, header, ("scan_id", "nodule_id"),
                        ("cancer", "4A", "9", "-1", "0", "2", "6"))
            path = tmp_path / f"r{k}.csv"
            ends = messy_csv(rng, path, header, rows)
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(header))
            for convention in ("lps", "ras"):
                outcomes.append(same_outcome(
                    lambda: fileio.read_references(path, convention),
                    lambda: oracle_record_read_references(path, convention)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    def check_error(self, path, expected):
        for read in (fileio.read_references, oracle_row_read_references,
                     oracle_record_read_references):
            with pytest.raises(InputError) as got:
                read(path)
            assert str(got.value) == expected

    @pytest.mark.parametrize("first, second", [
        ("diagnosis", "lungrads"), ("lungrads", "diagnosis"), ("votes", "rating"),
        ("rating", "votes"), ("diameter", "reviewers"), ("reviewers", "diameter"),
    ])
    def test_earlier_of_two_bad_rows_is_reported(self, tmp_path, first, second):
        spoil = {
            "diagnosis": lambda row: row.__setitem__(6, "malignant"),
            "lungrads": lambda row: row.__setitem__(7, "5"),
            "votes": lambda row: row.__setitem__(9, "3"),  # exceeds reviewers 2
            "rating": lambda row: row.__setitem__(10, "9"),
            "diameter": lambda row: row.__setitem__(5, "-1.5"),
            "reviewers": lambda row: row.__setitem__(8, "0"),
        }
        rows = [["s1", f"n{i}", "1", "2", "3", "8.0", "benign", "", "2", "1", "4"]
                for i in range(5)]
        spoil[first](rows[1])
        spoil[second](rows[3])
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + ",Subtlety\n"
                     + "".join(",".join(row) + "\n" for row in rows))
        expected = {
            "diagnosis": "diagnosis must be one of ('benign', 'cancer', 'unknown'), "
                         "got 'malignant'",
            "lungrads": "lungrads must be one of ('1', '2', '3', '4A', '4B', '4X'), got '5'",
            "votes": "nodule n1: positive_votes 3 exceeds reviewers 2",
            "rating": "rating subtlety must be an integer in [1, 5], got 9",
            "diameter": "reference diameter_mm must be positive, got -1.5",
            "reviewers": "reviewers must be a positive integer, got 0",
        }[first]
        self.check_error(path, f"{path}:3: {expected}")

    def test_rating_error_before_diameter_error_in_one_row(self, tmp_path):
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + ",Lobulation,DiamEq_Rad\n"
                     "s1,n0,1,2,3,8.0,benign,,,,2,4.5\n"
                     "s1,n1,1,2,3,0,cancer,,,,5,-2\n")
        self.check_error(path, f"{path}:3: rating lobulation must be an integer in [1, 4], got 5")
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + ",DiamEq_Rad\n"
                     "s1,n1,1,2,3,0,bogus,,,,-2\n")
        self.check_error(path, f"{path}:2: diameter_rad_mm must be positive, got -2.0")

    def test_duplicate_keeps_its_message(self, tmp_path):
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + "\n"
                     "s1,n1,1,2,3,8.0,,,,\n# a comment\ns2,n1,1,2,3,8.0,,,,\n"
                     "s1,n1,4,5,6,6.0,,,,\n")
        self.check_error(path, f"{path}:5: duplicate nodule_id 'n1' on scan 's1'")

    def test_unknown_convention_names_first_row(self, tmp_path):
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + "\ns1,n1,1,2,3,8.0,,,,\n")
        for read in (fileio.read_references, oracle_row_read_references,
                     oracle_record_read_references):
            with pytest.raises(InputError) as got:
                read(path, "xyz")
            assert str(got.value) == f"{path}:2: unknown coordinate convention 'xyz'; use lps or ras"
        path = write(tmp_path / "r.csv", REFERENCE_HEADER + "\n")
        assert list(fileio.read_references(path, "xyz")) == oracle_row_read_references(path, "xyz")


# ---------------------------------------------------------------------------
# The one-pass split of quote-free chunks against csv.reader, row by row


def columns_of(path):
    """The raw cells ``_Columns`` holds, by column name; or its error."""
    columns = fileio._Columns(path, ())
    columns.done()
    return {name: columns.raw(name) for name in columns._index}


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


READERS = {
    "candidates": (fileio.read_candidates, oracle_row_read_candidates),
    "fused": (fileio.read_fused, oracle_row_read_fused),
    "cadx": (fileio.read_cadx_scores, oracle_row_read_cadx_scores),
    "references": (fileio.read_references, oracle_row_read_references),
    "labeled": (fileio.read_labeled_scores, oracle_row_read_labeled_scores),
    "matches": (lambda path: fileio.read_match_files([path]),
                lambda path: oracle_row_read_match_files([path])),
}


def corpus_file(rng, kind, corrupted):
    """A header and rows of one reader's schema, with bad cells if ``corrupted``."""
    n = int(rng.integers(1, 25))
    if kind == "candidates":
        header, rows, keys = fileio.CANDIDATE_COLUMNS, candidate_rows(rng, n), (
            "scan_id", "candidate_id", "model")
    elif kind == "fused":
        header, rows, keys = fileio.FUSED_COLUMNS, fused_rows_text(rng, n), (
            "scan_id", "candidate_id", "stage", "provenance")
    elif kind == "cadx":
        header, keys = fileio.CADX_SCORE_COLUMNS, ("scan_id", "model", "candidate_id")
        rows = [{"scan_id": f"scan{rng.integers(3)}", "model": "CADE_B", "candidate_id": f"c{i}",
                 "p_luna": number_text(rng, float(rng.random())),
                 "p_dlcs": repr(float(rng.random()))} for i in range(n)]
    elif kind == "references":
        ratings = tuple(c for c in RATING_COLUMNS if rng.random() < 0.5)
        header, rows, keys = (fileio.REFERENCE_COLUMNS + ratings, reference_rows(rng, n, ratings),
                              ("scan_id", "nodule_id"))
    elif kind == "labeled":
        header, keys = fileio.LABELED_SCORE_COLUMNS, ("label",)
        rows = [{"scan_id": "s", "candidate_id": f"c{i}", "score": number_text(rng, float(i)),
                 "label": pick(rng, ("cancer", "no-cancer"))} for i in range(n)]
    else:
        header, keys = fileio.MATCH_COLUMNS, ("scan_id", "nodule_id", "model")
        rows = [{"scan_id": f"s{rng.integers(3)}", "nodule_id": f"n{i}",
                 "detected": pick(rng, ("0", "1", " 1")), "score": pick(rng, ("", "0.5", "1e-3")),
                 "model": "m"} for i in range(n)]
    if corrupted:
        corrupt(rng, rows, header, keys)
    return header, rows


class TestSplitPath:
    """``_Columns`` splits a chunk on "," only where ``csv.reader`` would read
    the same cells; every reader's outcome, error or records, and every raw
    cell must be those of the row-by-row readers."""

    @pytest.mark.parametrize("chunk", [3, fileio._CHUNK_LINES])
    def test_quote_free_corpus(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk)
        rng = np.random.default_rng(71)
        outcomes = []
        for k in range(180):
            kind = list(READERS)[k % len(READERS)]
            header, rows = corpus_file(rng, kind, corrupted=k % 4 != 0)
            eol = "\r\n" if k % 5 == 0 else "\n"
            path = tmp_path / f"{kind}{k}.csv"
            ends = messy_csv(rng, path, header, rows, quotes=False, eol=eol)
            if eol == "\n":
                assert b'"' not in path.read_bytes()
            if k % 7 == 0:
                add_long_row(rng, path, ends, len(header))
            read, oracle = READERS[kind]
            outcomes.append(same_outcome(lambda: read(path), lambda: oracle(path)))
            same_outcome(lambda: columns_of(path), lambda: oracle_row_columns(path))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    def test_even_quote_free_files_never_reach_csv_reader(self, tmp_path, monkeypatch):
        def no_csv_reader(*args):
            raise AssertionError("csv.reader path taken")

        monkeypatch.setattr(fileio, "_CHUNK_LINES", 3)
        monkeypatch.setattr(fileio._Columns, "_add_rows", no_csv_reader)
        rows = [f"s{i % 3}, c{i} ,{i}.5,-2,3e1,,0.{i},CADE_A\n" for i in range(10)]
        rows.insert(4, "# a comment between rows\n")
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (CANDIDATE_HEADER + "".join(rows)).encode())
        assert fileio.read_candidates(path) == oracle_row_read_candidates(path)
        path.write_bytes((CANDIDATE_HEADER + "".join(rows)).rstrip("\n").encode())
        assert fileio.read_candidates(path) == oracle_row_read_candidates(path)

    @pytest.mark.parametrize("late", ["quote", "crlf", "cr"])
    @pytest.mark.parametrize("at", [7, 8])  # a quoted cell within a chunk, or across two
    @pytest.mark.parametrize("bad_row", [None, 2, 10])
    def test_quote_or_carriage_return_after_the_first_chunk(self, tmp_path, monkeypatch,
                                                            late, at, bad_row):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 3)
        rows = [f"s1,c{i},1,2,3,,0.5,CADE_A\n" for i in range(12)]
        rows[at] = {"quote": f's1,"c{at},\nspans two lines",1,2,3,,0.5,CADE_A\n',
                    "crlf": f"s1,c{at},1,2,3,,0.5,CADE_A\r\n",
                    "cr": f"s1,c{at},1,2,3,,0.5,CADE_A\r"}[late]
        if bad_row is not None:
            rows[bad_row] = f"s1,c{bad_row},1,2,oops,,0.5,CADE_A\n"
        path = tmp_path / "c.csv"
        path.write_bytes((CANDIDATE_HEADER + "# digest\n" + "".join(rows)).encode())
        assert same_outcome(lambda: fileio.read_candidates(path),
                            lambda: oracle_row_read_candidates(path)) == (bad_row is None)
        assert same_outcome(lambda: columns_of(path), lambda: oracle_row_columns(path))

    @pytest.mark.parametrize("chunk", [3, fileio._CHUNK_LINES])
    def test_width_one_files_with_blank_lines(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk)
        texts = ["label\na\n\nb\n \n# c\n\n", "label\n\n\n\n\n", "label\nx", "\nlabel\nx\n\n",
                 "label\na\nb\nc\n\nd\n", "label\n\"\"\n\n", "label\na\nb\nc\nd,e\nf\n"]
        outcomes = []
        for k, text in enumerate(texts):
            path = tmp_path / f"w{k}.csv"
            path.write_bytes(text.encode())
            outcomes.append(same_outcome(lambda: columns_of(path),
                                         lambda: oracle_row_columns(path)))
        assert outcomes.count(False) == 2  # the blank header, and the row "d,e"

    @pytest.mark.parametrize("chunk", [3, fileio._CHUNK_LINES])
    def test_nul_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk)
        for k, cell in enumerate(["c\0", "\0", "0.5\0"]):
            rows = [f"s1,c{i},1,2,3,,0.5,CADE_A\n" for i in range(8)]
            rows[5] = f"s1,{cell},1,2,3,,0.5,CADE_A\n" if k < 2 else f"s1,c5,1,2,3,,{cell},CADE_A\n"
            path = tmp_path / f"c{k}.csv"
            path.write_bytes((CANDIDATE_HEADER + "".join(rows)).encode())
            same_outcome(lambda: fileio.read_candidates(path),
                         lambda: oracle_row_read_candidates(path))
            same_outcome(lambda: columns_of(path), lambda: oracle_row_columns(path))

    @pytest.mark.parametrize("chunk", [3, 4, fileio._CHUNK_LINES])
    def test_short_long_and_blank_rows_inside_a_chunk(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", chunk)
        rng = np.random.default_rng(73)
        header = "scan_id,candidate_id,x_mm,y_mm,z_mm,score,model,diameter_mm\n"
        odd = ["\n", "\n", "s9,c99,1,2,3,0.5,CADE_A\n", "s9,c95,1,2,3,0.5,CADE_A,\n", " \n",
               "s9,c98,1,2,3\n", "s9,c97,1,2,3,0.5,CADE_A,4,surplus\n",
               "s9,c96,1,2,3,0.5,CADE_A,4,\n", ",,,,,,,\n"]
        outcomes = []
        for k in range(60):
            rows = [f"s{i % 3},c{i},1,2,3,0.5,CADE_A,{i + 1}\n"
                    for i in range(int(rng.integers(1, 14)))]
            for _ in range(int(rng.integers(1, 3))):
                rows.insert(int(rng.integers(len(rows) + 1)), pick(rng, odd))
            path = tmp_path / f"c{k}.csv"
            path.write_bytes((header + "".join(rows)).encode())
            outcomes.append(same_outcome(lambda: fileio.read_candidates(path),
                                         lambda: oracle_row_read_candidates(path)))
            same_outcome(lambda: columns_of(path), lambda: oracle_row_columns(path))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur

    @pytest.mark.parametrize("quoted", [False, True])
    def test_cells_over_the_field_size_limit(self, tmp_path, monkeypatch, quoted):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 3)
        limit = csv.field_size_limit()
        csv.field_size_limit(40)
        try:
            for size in (39, 40, 41, 90):
                for bad_row in (None, 1, 6):
                    rows = [f"s1,c{i},1,2,3,,0.5,CADE_A\n" for i in range(9)]
                    cell = f'"{"c" * size}"' if quoted else "c" * size
                    rows[4] = f"s1,{cell},1,2,3,,0.5,CADE_A\n"
                    if bad_row is not None:
                        rows[bad_row] = "s1,x,1,2,3,,1.5,CADE_A\n"
                    path = tmp_path / "c.csv"
                    path.write_bytes((CANDIDATE_HEADER + "# digest\n" + "".join(rows)).encode())
                    read = lambda: fileio.read_candidates(path)  # noqa: E731
                    if size > 40 and bad_row != 1:
                        with pytest.raises(InputError) as got:
                            read()
                        assert str(got.value) == f"{path}:7: field larger than field limit (40)"
                    assert same_outcome(read, lambda: oracle_row_read_candidates(path)) == (
                        size <= 40 and bad_row is None)
                    same_outcome(lambda: columns_of(path), lambda: oracle_row_columns(path))
            path.write_bytes(("# digest\n" + "h" * 41 + "," + CANDIDATE_HEADER).encode())
            with pytest.raises(InputError) as got:
                fileio.read_candidates(path)
            assert str(got.value) == f"{path}:2: field larger than field limit (40)"
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("cells, error", [
        # score is checked after x_mm, but its bad row comes first, two chunks earlier
        ({1: {"score": "high"}, 8: {"x_mm": "oops"}}, "3: column score is not a number: 'high'"),
        ({1: {"x_mm": "oops"}, 8: {"score": "high"}}, "3: column x_mm is not a number: 'oops'"),
        ({4: {"y_mm": "inf"}, 9: {"score": "2"}}, "6: column y_mm is not finite: 'inf'"),
        ({5: {"z_mm": " nan "}}, "7: column z_mm is not finite: 'nan'"),
        ({4: {"score": " "}, 8: {"x_mm": "oops"}}, "6: column score is empty"),
        # a blank optional diameter reads as NaN, a literal nan is an error
        ({1: {"diameter_mm": ""}, 4: {"diameter_mm": " "}, 7: {"diameter_mm": "nan"}},
         "9: column diameter_mm is not finite: 'nan'"),
        ({1: {"diameter_mm": ""}, 4: {"diameter_mm": " "}}, None),
        # a quote in chunk 2 sends the rest of the file through csv.reader
        ({4: {"candidate_id": '"c,4"'}, 7: {"score": "x"}}, "9: column score is not a number: 'x'"),
        ({4: {"candidate_id": '"c,4"'}, 7: {"diameter_mm": ""}}, None),
    ])
    def test_faults_across_chunks(self, tmp_path, monkeypatch, cells, error):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 3)
        rows = [{"scan_id": "s1", "candidate_id": f"c{i}", "x_mm": "1", "y_mm": "2", "z_mm": "3",
                 "diameter_mm": "4", "score": "0.5", "model": "CADE_A"} for i in range(12)]
        for row, spoiled in cells.items():
            rows[row].update(spoiled)
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "".join(
            ",".join(row[c] for c in fileio.CANDIDATE_COLUMNS) + "\n" for row in rows))
        read = lambda: fileio.read_candidates(path)  # noqa: E731
        assert same_outcome(read, lambda: oracle_row_read_candidates(path)) == (error is None)
        if error is not None:
            with pytest.raises(InputError) as got:
                read()
            assert str(got.value) == f"{path}:{error}"

    def test_reference_and_match_errors_in_row_order(self, tmp_path):
        rng = np.random.default_rng(75)
        outcomes = []
        for k in range(120):
            ratings = tuple(c for c in RATING_COLUMNS if rng.random() < 0.6)
            rows = reference_rows(rng, int(rng.integers(1, 12)), ratings)
            for _ in range(int(rng.integers(0, 4))):
                row = pick(rng, rows)
                spoil = int(rng.integers(5))
                if spoil == 0 and ratings:
                    row[pick(rng, ratings)] = pick(
                        rng, ("0", "9", "-1", "x", "2.5", " ", "1e3", "\x1f2"))
                elif spoil == 1:
                    row["reviewers"], row["positive_votes"] = pick(
                        rng, (("2", "3"), ("", "1"), ("0", ""), ("x", "1"), ("3", " 2 ")))
                elif spoil == 2:
                    row["diagnosis"], row["lungrads"] = pick(
                        rng, (("weird", ""), (" cancer ", "4X"), ("benign", "9Z")))
                elif spoil == 3:
                    row["diameter_mm"] = pick(rng, ("0", "-3", "", "x"))
                else:
                    row["scan_id"], row["nodule_id"] = rows[0]["scan_id"], rows[0]["nodule_id"]
            path = tmp_path / f"r{k}.csv"
            messy_csv(rng, path, fileio.REFERENCE_COLUMNS + ratings, rows, quotes=bool(k % 2))
            convention = "xyz" if k % 10 == 0 else pick(rng, ("lps", "ras"))
            outcomes.append(same_outcome(lambda: fileio.read_references(path, convention),
                                         lambda: oracle_row_read_references(path, convention)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur
        outcomes = []
        for k in range(80):
            paths = []
            for j in range(int(rng.integers(1, 4))):
                rows = [{"scan_id": f"s{rng.integers(2)}",
                         "nodule_id": f"n{i}" if rng.random() < 0.2 else f"n{j}.{i}",
                         "detected": pick(rng, ("0", "1", " 1 ")),
                         "score": pick(rng, ("0.5", " 0.25", "1e-3", "")),
                         "model": pick(rng, ("m1", "m2"))} for i in range(int(rng.integers(1, 10)))]
                for row in rows:
                    if row["detected"].strip() == "1" and not row["score"]:
                        row["score"] = "0.75"
                if rng.random() < 0.5:
                    row = pick(rng, rows)
                    column = pick(rng, fileio.MATCH_COLUMNS)
                    row[column] = pick(rng, ("", " ", "2", "-1", "x", "nan", "inf", "0"))
                paths.append(tmp_path / f"m{k}.{j}.csv")
                messy_csv(rng, paths[-1], fileio.MATCH_COLUMNS, rows, quotes=bool(k % 2))
            outcomes.append(same_outcome(lambda: fileio.read_match_files(paths),
                                         lambda: oracle_row_read_match_files(paths)))
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both outcomes occur


class TestNumberChunks:
    """A chunk of a numeric column is parsed once when its only cells that
    are not finite numbers are empty; any other odd cell next to a blank
    one reads and fails as it did before."""

    POOL = ("", "", " ", "nan", "inf", "-inf", "\x1f1.0", "1.5", " 2 ", "1e999", "x", "0", "-0.0")

    def test_segments_equal_the_earlier_conversion(self):
        rng = np.random.default_rng(17)
        outcomes = set()
        for k in range(400):
            n = int(rng.integers(1, 9))
            numbers = [f"{x:.3f}" for x in rng.uniform(-5, 5, n).tolist()]
            cells = [pick(rng, self.POOL) if rng.random() < 0.3 else x for x in numbers]
            cells = tuple(cells) if k % 2 else cells
            (got, blank, bad), want = fileio._segment(cells), oracle_segment(cells)
            outcomes.add((isinstance(want, np.ndarray), "" in cells))
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert blank == next((i for i, c in enumerate(cells) if not c.strip()), None)
            if isinstance(want, np.ndarray):
                assert bad is None
                assert np.array_equal(got, want, equal_nan=True)
            else:  # the first cell that is neither blank nor a finite number
                assert bad is not None and bad[1] is cells[bad[0]]
                assert isinstance(oracle_segment(cells[:bad[0]]), np.ndarray)
                assert not isinstance(oracle_segment(cells[:bad[0] + 1]), np.ndarray)
        assert len(outcomes) == 4  # with and without a bad cell, each with and without a blank

    def test_numbers_and_empty_cells_are_parsed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fileio, "float", lambda cell: calls.append(cell) or float(cell),
                            raising=False)
        cells = ["1.5", "", "2", "", "-0.25"]
        got, blank, bad = fileio._segment(cells)
        assert len(calls) == len(cells)
        assert np.array_equal(got, [1.5, np.nan, 2.0, np.nan, -0.25], equal_nan=True)
        assert (blank, bad) == (1, None)

    def test_a_bad_cell_costs_at_most_two_parses_per_cell(self, tmp_path, monkeypatch):
        # the one parse of the chunk, then one per cell; the error's words
        # take one more parse of the bad cell
        calls = []
        monkeypatch.setattr(fileio, "float", lambda cell: calls.append(cell) or float(cell),
                            raising=False)
        cells = ["1.5", "2", "x", "3", "4"]
        path = write(tmp_path / "l.csv", "scan_id,candidate_id,score,label\n" + "".join(
            f"s,c{i},{cell},cancer\n" for i, cell in enumerate(cells)))
        with pytest.raises(InputError, match=f"^{path}:4: column score is not a number: 'x'$"):
            fileio.read_labeled_scores(path)
        assert len(calls) <= 2 * len(cells)

    @pytest.mark.parametrize("column", ["x_mm", "diameter_mm"])  # required, optional
    @pytest.mark.parametrize("cell", [" ", "nan", "inf", "\x1f1.0"])
    @pytest.mark.parametrize("blank_first", [True, False])
    def test_odd_cell_next_to_a_blank_one(self, tmp_path, monkeypatch, column, cell,
                                          blank_first):
        monkeypatch.setattr(fileio, "_CHUNK_LINES", 4)
        rows = [{"scan_id": "s1", "candidate_id": f"c{i}", "x_mm": "1", "y_mm": "2", "z_mm": "3",
                 "diameter_mm": "4", "score": "0.5", "model": "CADE_A"} for i in range(12)]
        blank, odd = (5, 6) if blank_first else (6, 5)  # both in the second chunk
        rows[blank][column], rows[odd][column] = "", cell
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "".join(
            ",".join(row[c] for c in fileio.CANDIDATE_COLUMNS) + "\n" for row in rows))
        problem = {" ": "is empty", "nan": "is not finite: 'nan'", "inf": "is not finite: 'inf'",
                   "\x1f1.0": "is not a number: '\\x1f1.0'"}[cell]
        if column == "x_mm":  # the earlier of the two rows is reported
            error = (blank, "is empty") if blank_first else (odd, problem)
        else:  # a blank diameter, or one strip() makes blank, reads as NaN
            error = None if cell == " " else (odd, problem)
        read = lambda: fileio.read_candidates(path)  # noqa: E731
        assert same_outcome(read, lambda: oracle_row_read_candidates(path)) == (error is None)
        if error is None:
            assert np.isnan(CandidateTable.of(read()).diameter_mm[[blank, odd]]).all()
        else:
            with pytest.raises(InputError) as got:
                read()
            assert str(got.value) == f"{path}:{error[0] + 2}: column {column} {error[1]}"


class TestIngestMemory:
    """Numbers are held as float64 a chunk at a time and repeated ids as
    one shared string, not as a string per cell until the file is read."""

    def test_read_candidates_peak_and_retained_bytes(self, tmp_path):
        # 20 000 rows, 25 per scan, as a detector writes them. Under
        # tracemalloc on CPython 3.11, holding every cell as a string until
        # the end peaked at 15.4 MB and kept 4.8 MB; per-chunk conversion
        # peaks at 6.6 MB and keeps 2.5 MB.
        rng = np.random.default_rng(91)
        n = 20_000
        xyz = rng.uniform(-200.0, 200.0, (n, 3))
        diameter = rng.uniform(3.0, 30.0, n)
        score = rng.uniform(0.05, 1.0, n)
        path = write(tmp_path / "c.csv", CANDIDATE_HEADER + "".join(
            f"scan{i // 25:04d},c{i % 25:05d},{x:.3f},{y:.3f},{z:.3f},"
            f"{'' if i % 4 == 0 else f'{d:.2f}'},{p:.4f},CADE_A\n"
            for i, ((x, y, z), d, p) in enumerate(zip(xyz.tolist(), diameter.tolist(),
                                                      score.tolist()))))
        fileio.read_candidates(path)
        gc.collect()
        tracemalloc.start()
        try:
            table = fileio.read_candidates(path)
            retained, peak = tracemalloc.get_traced_memory()  # bytes since start()
        finally:
            tracemalloc.stop()
        assert len(table) == n
        assert peak < 11e6
        assert retained < 3.6e6

    def test_sha256_file_peak_bytes(self, tmp_path):
        # 4 MB. Under tracemalloc on CPython 3.11, a new 1 MiB bytes object per
        # read peaked at 2.1 MB; one 256 KiB buffer read into peaks at 0.3 MB.
        data = np.random.default_rng(92).bytes(4_000_000)
        path = tmp_path / "input.raw"
        path.write_bytes(data)
        fileio.sha256_file(path)
        tracemalloc.start()
        try:
            digest = fileio.sha256_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 1e6


class TestWriteCsv:
    def test_bytes_equal_per_cell_formatter(self, tmp_path):
        rows = [
            (None, 0.1, 1, "plain", -0.0, 1e300, 2.0 ** -1074, True),
            ("a,b", 'say "hi"', None, 1 / 3, 12345678901234567890, "line\nbreak", 0, -2.5),
            ("", float("inf"), "  padded  ", None, None, None, None, None),
            (),
        ]
        header = ("c1", "c,2", 'c"3', "c4", "c5", "c6", "c7", "c8")
        for digest in (None, "abc"):
            got = fileio.write_csv(tmp_path / "got.csv", header, rows, digest)
            expected = oracle_write_csv(tmp_path / "expected.csv", header, rows, digest)
            assert got.read_bytes() == expected.read_bytes()
