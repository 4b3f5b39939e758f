"""Tests for CSV import/export."""

import pytest

from repro.errors import ReproError, SchemaError
from repro.io import read_csv, write_csv
from repro.model import AtomType, RecordSchema, Span


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "position,close,volume,halted\n"
        "1,101.5,5000,false\n"
        "2,102.25,6100,false\n"
        "4,99.8,4100,true\n"
    )
    return path


class TestReadCsv:
    def test_type_inference(self, csv_file):
        sequence = read_csv(csv_file)
        assert sequence.schema.type_of("close") is AtomType.FLOAT
        assert sequence.schema.type_of("volume") is AtomType.INT
        assert sequence.schema.type_of("halted") is AtomType.BOOL
        assert sequence.at(4).get("halted") is True
        assert sequence.span == Span(1, 4)

    def test_string_fallback(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("position,name\n1,etna\n2,fuji\n")
        sequence = read_csv(path)
        assert sequence.schema.type_of("name") is AtomType.STR

    def test_explicit_schema(self, csv_file):
        schema = RecordSchema.of(close=AtomType.FLOAT)
        sequence = read_csv(csv_file, schema=schema)
        assert sequence.schema == schema
        assert sequence.at(1).values == (101.5,)

    def test_explicit_schema_missing_column(self, csv_file):
        schema = RecordSchema.of(nope=AtomType.FLOAT)
        with pytest.raises(ReproError, match="missing"):
            read_csv(csv_file, schema=schema)

    def test_custom_position_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("day,v\n3,1\n5,2\n")
        sequence = read_csv(path, position_column="day")
        assert [p for p, _ in sequence.iter_nonnull()] == [3, 5]

    def test_missing_position_column(self, csv_file):
        with pytest.raises(ReproError, match="position column"):
            read_csv(csv_file, position_column="day")

    def test_bad_position_value(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("position,v\nxyz,1\n")
        with pytest.raises(SchemaError, match="bad position"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            read_csv(path)

    def test_explicit_span(self, csv_file):
        sequence = read_csv(csv_file, span=Span(0, 10))
        assert sequence.span == Span(0, 10)

    def test_queryable(self, csv_file):
        from repro.algebra import base, col

        sequence = read_csv(csv_file)
        query = base(sequence, "p").select(col("close") > 100.0).query()
        assert len(query.run()) == 2


class TestWriteCsv:
    def test_round_trip(self, csv_file, tmp_path):
        sequence = read_csv(csv_file)
        out = tmp_path / "out.csv"
        count = write_csv(sequence, out)
        assert count == 3
        again = read_csv(out)
        assert again.to_pairs() == sequence.to_pairs()

    def test_unbounded_rejected(self, small_prices, tmp_path):
        from repro.model import BaseSequence, Record

        unbounded = BaseSequence(
            small_prices.schema,
            small_prices.iter_nonnull(),
            span=Span(1, None),
        )
        with pytest.raises(ReproError, match="unbounded"):
            write_csv(unbounded, tmp_path / "x.csv")

    def test_custom_delimiter(self, csv_file, tmp_path):
        sequence = read_csv(csv_file)
        out = tmp_path / "out.tsv"
        write_csv(sequence, out, delimiter="\t")
        again = read_csv(out, delimiter="\t")
        assert again.to_pairs() == sequence.to_pairs()


class TestWriteCsvReadsColumnRuns:
    """The export reads typed column runs; the file is the record walk's, byte for byte."""

    @staticmethod
    def _record_walk(sequence, path):
        import csv

        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["position", *sequence.schema.names])
            for position, record in sequence.iter_nonnull():
                writer.writerow([position, *record.values])
        return path.read_bytes()

    @staticmethod
    def _mixed():
        from repro.model import BaseSequence, Record

        schema = RecordSchema.of(
            f=AtomType.FLOAT, i=AtomType.INT, s=AtomType.STR, b=AtomType.BOOL
        )
        rows = {
            1: (1.5, 7, "a,b", True),
            2: (-0.0, 2**63 + 1, 'q"uote', False),
            5: (1e-7, -3, "", True),
            9: (float("inf"), 2**53 + 1, "z", False),
        }
        items = [(p, Record(schema, values)) for p, values in rows.items()]
        return BaseSequence(schema, items, span=Span(0, 12))

    def test_in_memory_stored_and_columnar_answers(self, tmp_path):
        from repro.algebra import base
        from repro.execution import run_query
        from repro.storage import ORGANIZATION_KINDS, StoredSequence

        memory = self._mixed()
        sources = [memory, run_query(base(memory, "m").previous().query(), mode="batch")]
        sources += [
            StoredSequence.from_sequence("m", memory, organization=kind, page_capacity=2)
            for kind in ORGANIZATION_KINDS
        ]
        for index, sequence in enumerate(sources):
            expected = self._record_walk(sequence, tmp_path / f"walk{index}.csv")
            out = tmp_path / f"runs{index}.csv"
            assert write_csv(sequence, out) == sequence.count_nonnull()
            assert out.read_bytes() == expected

    def test_builds_no_record(self, tmp_path, monkeypatch):
        from repro.algebra import base
        from repro.execution import run_query
        from repro.model import Record

        answer = run_query(base(self._mixed(), "m").next().query(), mode="batch")
        monkeypatch.setattr(
            Record, "unchecked", classmethod(lambda cls, *args: pytest.fail("boxed a record"))
        )
        assert write_csv(answer, tmp_path / "out.csv") == answer.count_nonnull() == 9
